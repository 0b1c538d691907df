// Command perfbench is the repository's benchmark of the deployed NWS path.
// It stands up the daemons in one process over loopback TCP, drives them
// from seeded simulated host traces, checks their outputs, and prints every
// end-to-end metric by name and unit; the last line of standard output is a
// JSON result. With --trace 1 it runs the workload twice, untraced and then
// traced, and reports the per-layer metrics, the layer budget and the
// tracing overhead instead. See README.md.
//
//	perfbench --workload ingest|forecast|durable --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// e2eUnits names every end-to-end metric a workload can report, with its
// unit. BENCHMARK.json gates the ones every workload reports.
var e2eUnits = map[string]string{
	"setup_s":      "s",
	"heap_mb":      "MB",
	"store_p50_us": "us",
	"store_p99_us": "us",
	"ingest_mps":   "measurements/s",
	"step_p50_us":  "us",
	"step_p90_us":  "us",
	"step_p99_us":  "us",
	"error_rate":   "ratio",
	"query_p50_us": "us",
	"query_p99_us": "us",
	"fresh_p50_ms": "ms",
	"fresh_p99_ms": "ms",
	"forecast_mae": "availability",
	"recovery_s":   "s",
}

// gated are the end-to-end metrics in the result line and BENCHMARK.json:
// setup_s, and those every workload reports, that are never 0, and whose
// run-to-run spread stayed within half their bound (README.md, "Gated
// metrics").
var gated = []string{"setup_s", "heap_mb", "step_p50_us"}

func main() {
	name := flag.String("workload", "", "ingest, forecast or durable")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "timed phase length")
	trace := flag.Int("trace", 0, "1: run untraced then traced and report per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for spans and durable state")
	cal := flag.Bool("calibrate", false, "measure the figures the forecast workload's rates derive from")
	flag.Parse()
	if *cal {
		if err := calibrate(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*name, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, out string) error {
	c, ok := configs[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	in := genInputs(seed, c.hosts, c.traces, c.capacity, c.epochs(seconds), c.queries(seconds))
	env := stamp(name, seed, seconds, c, in)
	stateRoot := filepath.Join(out, fmt.Sprintf("state-%d", os.Getpid()))
	defer os.RemoveAll(stateRoot)
	measure := func(tr *tracer, setups int) (*result, error) {
		if name == "forecast" {
			return runForecast(c, in, seconds, tr, setups)
		}
		return runReplicated(name, c, in, seconds, tr, setups, stateRoot)
	}

	var results []*result
	var metrics map[string]float64
	units := make(map[string]string)
	for _, n := range gated {
		units[n] = e2eUnits[n]
	}
	if !traced {
		r, err := measure(nil, c.setups)
		if err != nil {
			return err
		}
		results, metrics = []*result{r}, r.e2e
	} else {
		base, err := measure(nil, 1)
		if err != nil {
			return err
		}
		hosts := make([]string, c.hosts)
		for k := range hosts {
			hosts[k], _ = in.host(k)
		}
		tr := newTracer(hosts)
		r, err := measure(tr, 1)
		if err != nil {
			return err
		}
		r.layers["trace.overhead_us"] = r.e2eP50 - base.e2eP50
		if err := tr.write(filepath.Join(out, "spans-"+name+".csv")); err != nil {
			return err
		}
		results, metrics = []*result{base, r}, r.layers
		units = make(map[string]string)
		for _, lm := range layerMetrics {
			units[lm[0]] = lm[1]
		}
	}

	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)
	for i, r := range results {
		label := "untraced"
		if traced && i == 1 {
			label = "traced"
		}
		report(label, r)
	}
	if traced {
		fmt.Println("per-layer (traced run; 0 where the workload does not run the layer):")
		for _, lm := range layerMetrics {
			fmt.Printf("  %-34s %14.4f %s\n", lm[0], metrics[lm[0]], lm[1])
		}
	}

	res := map[string]any{"correct": true, "attempted": 0, "failed": 0}
	attempted, failed := 0, 0
	for _, r := range results {
		attempted += r.attempted
		failed += r.failed
		if !r.correct() {
			res["correct"] = false
		}
	}
	res["attempted"], res["failed"] = attempted, failed
	ms := make(map[string]any, len(units))
	for n, u := range units {
		ms[n] = map[string]any{"value": finite(metrics[n]), "unit": u}
	}
	res["metrics"] = ms
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// report prints a run's end-to-end metrics and correctness checks.
func report(label string, r *result) {
	fmt.Printf("%s run: %d operations attempted, %d failed\n", label, r.attempted, r.failed)
	if r.outOfTape {
		fmt.Printf("  closed loop ended after %.2f s: a host's tape ran out\n", r.closedS)
	}
	names := make([]string, 0, len(r.e2e))
	for n := range r.e2e {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-14s %14.4f %s\n", n, r.e2e[n], e2eUnits[n])
	}
	for _, c := range r.checks {
		verdict := "PASS"
		if !c.ok {
			verdict = "FAIL"
		}
		fmt.Printf("  check %-8s %s: %s\n", c.name, verdict, c.detail)
	}
}

// finite keeps the JSON encodable: a quantile that landed on a failed
// operation (+Inf) reports the largest float.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

// stamp is the environment every result records.
func stamp(name string, seed int64, seconds float64, c config, in *inputs) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	open, closed := c.phases(seconds)
	offered := map[string]any{"open_s": open.Seconds(), "closed_s": closed.Seconds()}
	if c.round > 0 {
		offered["round_period_s"] = c.round.Seconds()
		offered["stores_per_s"] = float64(c.hosts) / c.round.Seconds()
		offered["queries_per_s"] = c.qRate
	} else {
		offered["steps_per_s"] = c.openRate
	}
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"transport":  "tcp loopback 127.0.0.1",
		"offered":    offered,
		"hosts":      c.hosts,
		"series":     c.hosts * len(sensorNames),
		"capacity":   c.capacity,
		"input_hash": in.hash(),
	}
}
