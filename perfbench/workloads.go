package main

// The three workloads: their sizing, generators, correctness gates and
// measurements.

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// config sizes one workload. Rates and lengths are fixed here, not tuned per
// run; the result's environment stamp records them.
type config struct {
	hosts    int           // simulated hosts, 3 series each
	traces   int           // distinct simulated traces the hosts replay (host k replays trace k mod traces)
	capacity int           // points per series; every series is prefilled to it
	openRate float64       // ingest, durable: Steps/s offered in the latency phase
	round    time.Duration // forecast: round period, 3 × a round's measured busy time (calibrate.go)
	qRate    float64       // forecast: scheduler queries/s, half the measured query saturation
	share    float64       // share of --seconds given to the open-loop (or round) phase
	maxRate  float64       // Steps/s the tapes hold for the closed loop; a faster loop ends early
	setups   int           // set-ups per run; setup_s is their median
}

var configs = map[string]config{
	"ingest": {hosts: 1000, traces: 32, capacity: 60, openRate: 7000,
		share: 0.5, maxRate: 60000, setups: 7},
	"forecast": {hosts: 256, traces: 32, capacity: 100, round: 320 * time.Millisecond, qRate: 16000,
		share: 0.6, maxRate: 40000, setups: 7},
	"durable": {hosts: 32, traces: 8, capacity: 1024, openRate: 3000,
		share: 0.5, maxRate: 40000, setups: 7},
}

// phases splits a run of the given length.
func (c config) phases(seconds float64) (open, closed time.Duration) {
	open = time.Duration(seconds * c.share * float64(time.Second))
	return open, time.Duration(seconds*float64(time.Second)) - open
}

// epochs is how many live epochs each trace must hold for a run.
func (c config) epochs(seconds float64) int {
	open, closed := c.phases(seconds)
	var n float64
	if c.round > 0 {
		n = float64(open / c.round)
	} else {
		n = c.openRate * open.Seconds() / float64(c.hosts)
	}
	return int(n+c.maxRate*closed.Seconds()/float64(c.hosts)) + 2
}

func (c config) queries(seconds float64) int {
	open, _ := c.phases(seconds)
	return int(c.qRate * open.Seconds())
}

// check is one correctness gate's outcome.
type check struct {
	name   string
	ok     bool
	detail string
}

// result is one measured run.
type result struct {
	attempted, failed int
	checks            []check
	e2e               map[string]float64 // every end-to-end metric the workload defines
	layers            map[string]float64 // traced runs only
	e2eP50            float64            // the workload's headline latency median, µs
	closedS           float64            // how long the closed loop ran
	outOfTape         bool               // the closed loop ended early, out of tape
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// fleet is the benchmark's side of the sensors: each host's replay cursor,
// how many epochs it has measured, and the ledger derived from both.
type fleet struct {
	in      *inputs
	names   []string
	replays []*replay
	taken   []int // live epochs measured per host
}

func newFleet(in *inputs) *fleet {
	f := &fleet{in: in, taken: make([]int, in.hosts)}
	for k := 0; k < in.hosts; k++ {
		name, tr := in.host(k)
		f.names = append(f.names, name)
		f.replays = append(f.replays, &replay{tr: tr})
	}
	return f
}

// series lists every series key, host-major.
func (f *fleet) series() []string {
	var out []string
	for _, n := range f.names {
		for j := range sensorNames {
			out = append(out, seriesKey(n, j))
		}
	}
	return out
}

// history is every series' prefilled points, aligned with series().
func (f *fleet) history() [][][2]float64 {
	var out [][][2]float64
	for k := range f.names {
		_, tr := f.in.host(k)
		for j := range sensorNames {
			pts := make([][2]float64, len(tr.preT))
			for e, t := range tr.preT {
				pts[e] = [2]float64{t, tr.preV[e][j]}
			}
			out = append(out, pts)
		}
	}
	return out
}

// window is what series j of host k must hold now: the last capacity
// points of its history followed by every measured epoch.
func (f *fleet) window(k, j, capacity int) [][2]float64 {
	_, tr := f.in.host(k)
	var all [][2]float64
	for e, t := range tr.preT {
		all = append(all, [2]float64{t, tr.preV[e][j]})
	}
	for e := 0; e < f.taken[k]; e++ {
		all = append(all, [2]float64{tr.liveT[e], tr.liveV[e][j]})
	}
	if len(all) > capacity {
		all = all[len(all)-capacity:]
	}
	return all
}

// measured is the number of measurements the fleet has taken live.
func (f *fleet) measured() int {
	n := 0
	for _, t := range f.taken {
		n += t
	}
	return n * len(sensorNames)
}

// stepper runs Steps for one generator goroutine and keeps its tallies.
type stepper struct {
	s      *stack
	f      *fleet
	lat    []sample  // µs from due to quorum ack; +Inf for failures
	lag    []float64 // ms the generator started after the due time
	acks   []int64   // closed loop: when each acknowledged Step completed
	clat   []sample  // closed loop: µs from call to quorum ack, keyed by call time
	acked  int       // Steps acknowledged at quorum
	failed int
	desync int // Steps refused: the replay cursor was off an epoch boundary or out of tape
	blMax  int
}

// step runs host k's next Step; due is its scheduled start (0: closed loop).
func (g *stepper) step(k int, due int64) bool {
	r := g.f.replays[k]
	if r.epoch(g.f.taken[k]) < 0 || g.f.taken[k] >= len(r.tr.liveT) {
		g.desync++
		g.failed++
		return false
	}
	start := now()
	err := g.s.step(k)
	end := now()
	g.f.taken[k]++
	if g.s.tr != nil {
		g.blMax = max(g.blMax, g.s.backlog(k))
	}
	if due > 0 {
		g.lag = append(g.lag, float64(start-due)/1e6)
		if err != nil {
			g.lat = append(g.lat, sample{due, math.Inf(1)})
		} else {
			g.lat = append(g.lat, sample{due, float64(end-due) / 1e3})
		}
	}
	if err != nil {
		g.failed++
		return false
	}
	if due == 0 {
		g.acks = append(g.acks, end)
		g.clat = append(g.clat, sample{start, float64(end-start) / 1e3})
	}
	g.acked++
	return true
}

// openLoop offers Steps at rate for dur from t0, host phases spread evenly
// over the fleet order; two generator goroutines each own half the hosts.
func openLoop(s *stack, f *fleet, rate float64, t0 int64, dur time.Duration) []*stepper {
	n := int(rate * dur.Seconds())
	gap := 1e9 / rate
	gs := []*stepper{{s: s, f: f}, {s: s, f: f}}
	var wg sync.WaitGroup
	for w := range gs {
		wg.Add(1)
		go func(g *stepper, w int) {
			defer wg.Done()
			for i := w; i < n; i += 2 {
				due := t0 + int64(float64(i)*gap)
				sleepUntil(due)
				g.step(f.in.order[i%f.in.hosts], due)
			}
		}(gs[w], w)
	}
	wg.Wait()
	return gs
}

// saturation is what the closed loop measured: acknowledged measurements
// per second (median over windows) and Step latency from call to quorum ack
// (p50 over the phase; p90 and p99 as medians of per-window quantiles).
type saturation struct {
	mps, p50, p90, p99 float64
	ran                time.Duration // how long the loop ran
	outOfTape          bool          // it ended early: a host's tape ran out
}

// closedLoop steps back to back on two goroutines for dur. Each goroutine
// owns the hosts at its parity in the fleet order. If a host's tape runs out
// first (the program outran the rate the tapes were sized for), the phase
// ends there for both goroutines and its figures are taken over the time it
// ran. The steppers come back with their closed-loop samples released.
func closedLoop(s *stack, f *fleet, dur time.Duration) (saturation, []*stepper) {
	gs := []*stepper{{s: s, f: f}, {s: s, f: f}}
	start := now()
	deadline := start + int64(dur)
	var out atomic.Bool
	var wg sync.WaitGroup
	for w := range gs {
		wg.Add(1)
		go func(g *stepper, w int) {
			defer wg.Done()
			for p := w; now() < deadline && !out.Load() && g.desync == 0; p += 2 {
				k := f.in.order[p%f.in.hosts]
				if f.taken[k] >= len(f.replays[k].tr.liveT) {
					out.Store(true)
					break
				}
				g.step(k, 0)
			}
		}(gs[w], w)
	}
	wg.Wait()
	ran := time.Duration(min(now(), deadline) - start)
	var acks, lat []sample
	for _, g := range gs {
		for _, t := range g.acks {
			acks = append(acks, sample{due: t})
		}
		lat = append(lat, g.clat...)
		g.acks, g.clat = nil, nil
	}
	return saturation{
		mps:       windowRate(acks, start, ran) * float64(len(sensorNames)),
		p50:       quantile(steady(lat, start, ran), 0.5),
		p99:       windowQuantile(lat, start, ran, 0.99),
		p90:       windowQuantile(lat, start, ran, 0.90),
		ran:       ran,
		outOfTape: out.Load(),
	}, gs
}

func (sat saturation) record(r *result) {
	r.e2e["ingest_mps"] = sat.mps
	r.e2e["step_p50_us"] = sat.p50
	r.e2e["step_p99_us"] = sat.p99
	r.e2e["step_p90_us"] = sat.p90
	r.closedS, r.outOfTape = sat.ran.Seconds(), sat.outOfTape
}

// sample is one operation: when it was due (or, for throughput, completed)
// and its latency from the due time in µs (+Inf: failed).
type sample struct {
	due int64
	v   float64
}

// window is the span tail quantiles and throughput are taken over. The
// first warmup of a phase is discarded; the reported figure is the median
// over the remaining whole windows, so a stall that hits a fraction of a
// second of a run (a GC cycle, a noisy neighbour) moves it by a rank or
// two, not by its own size.
const (
	window = int64(250 * time.Millisecond)
	warmup = int64(time.Second)
)

// windows groups samples by whole window of [t0+warmup, t0+dur). A phase too
// short for a warm-up and two windows is one window.
func windows(xs []sample, t0 int64, dur time.Duration) [][]sample {
	from, span := t0+warmup, window
	n := int((int64(dur) - warmup) / window)
	if n < 2 {
		from, span, n = t0, int64(dur), 1
	}
	out := make([][]sample, n)
	for _, x := range xs {
		if k := int((x.due - from) / span); x.due >= from && k < n {
			out[k] = append(out[k], x)
		}
	}
	return out
}

// windowQuantile is the median over windows of each window's q-quantile.
func windowQuantile(xs []sample, t0 int64, dur time.Duration, q float64) float64 {
	var per []float64
	for _, w := range windows(xs, t0, dur) {
		if len(w) > 0 {
			per = append(per, quantile(values(w), q))
		}
	}
	return quantile(per, 0.5)
}

// windowRate is the median over windows of events per second.
func windowRate(xs []sample, t0 int64, dur time.Duration) float64 {
	ws := windows(xs, t0, dur)
	span := float64(window) / 1e9
	if len(ws) == 1 {
		span = dur.Seconds()
	}
	per := make([]float64, len(ws))
	for i, w := range ws {
		per[i] = float64(len(w)) / span
	}
	return quantile(per, 0.5)
}

// steady is every sample past the warm-up window, as plain values.
func steady(xs []sample, t0 int64, dur time.Duration) []float64 {
	var out []float64
	for _, w := range windows(xs, t0, dur) {
		out = append(out, values(w)...)
	}
	return out
}

func values(xs []sample) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.v
	}
	return out
}

// tally folds steppers into the result's counts and latency samples.
type tally struct {
	lat            []sample
	lag            []float64
	lagP50, lagP99 float64 // ms, set by reduce
	blMax          int
	desync         int
}

func (t *tally) add(r *result, gs []*stepper) {
	for _, g := range gs {
		r.attempted += g.acked + g.failed
		r.failed += g.failed
		t.lat = append(t.lat, g.lat...)
		t.lag = append(t.lag, g.lag...)
		t.blMax = max(t.blMax, g.blMax)
		t.desync += g.desync
	}
}

// reduce keeps the generator lag's quantiles and releases the samples, so
// the heap reading after it holds none of them.
func (t *tally) reduce() {
	t.lagP50, t.lagP99 = quantile(t.lag, 0.5), quantile(t.lag, 0.99)
	t.lat, t.lag = nil, nil
}

// measure holds the process-level readings around a timed phase.
type measure struct {
	c0, c1   map[string]float64
	m0, m1   runtime.MemStats
	conns    *gaugeMax
	connsMax float64
}

func startMeasure(tr *tracer) *measure {
	m := &measure{c0: counters()}
	runtime.ReadMemStats(&m.m0)
	if tr != nil {
		m.conns = sampleGauge("nws_client_pool_active_connections", 20*time.Millisecond)
		tr.on.Store(true)
	}
	return m
}

// stop ends the timed phase: tracing stops and the counters and allocation
// totals are read.
func (m *measure) stop(tr *tracer) {
	if tr != nil {
		tr.on.Store(false)
		m.connsMax = m.conns.finish()
	}
	m.c1 = counters()
	runtime.ReadMemStats(&m.m1)
}

// liveHeap is the live heap in bytes after a forced GC.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapMB is the program's live heap: the live heap now less base, the
// reading taken before the first set-up with the inputs already built. Call
// it once the benchmark's samples are reduced, so they are not counted.
func heapMB(base uint64) float64 {
	return (float64(liveHeap()) - float64(base)) / 1e6
}

// checkWindows is the zero-loss, no-duplicate gate: every series, read from
// every storage server, must equal the ledger's window on at least need of
// them.
func checkWindows(r *result, s *stack, f *fleet, need int) {
	keys := f.series()
	got, err := s.fetchEach(keys)
	if err != nil {
		r.check("ledger", false, "%v", err)
		return
	}
	short := 0
	firstBad := ""
	for k := range f.names {
		for j := range sensorNames {
			want := f.window(k, j, s.capacity)
			i := k*len(sensorNames) + j
			copies := 0
			for a := range got {
				if slices.Equal(got[a][i], want) {
					copies++
				}
			}
			if copies < need {
				short++
				if firstBad == "" {
					firstBad = keys[i]
				}
			}
		}
	}
	r.check("ledger", short == 0, "%d series, %d held exactly by fewer than %d servers (first: %q)",
		len(keys), short, need, firstBad)
}

// runReplicated is the ingest and durable workloads: the fleet stores
// through one ReplicaGroup (3 replicas, quorum 2) into Memory or
// PersistentMemory servers.
func runReplicated(name string, c config, in *inputs, seconds float64, tr *tracer, setups int, stateRoot string) (*result, error) {
	ctx := context.Background()
	durable := name == "durable"
	var s *stack
	var f *fleet
	var setupS []float64
	heap0 := liveHeap()
	hist := newFleet(in).history()
	for i := 0; i < setups; i++ {
		if s != nil {
			s.close()
		}
		var dirs []string
		if durable {
			os.RemoveAll(stateRoot)
			for r := 0; r < 3; r++ {
				dirs = append(dirs, filepath.Join(stateRoot, fmt.Sprintf("replica%d", r)))
			}
		}
		f = newFleet(in)
		runtime.GC() // the previous set-up's garbage is not this one's cost
		t0 := time.Now()
		var err error
		if s, err = startReplicated(tr, 3, c.capacity, dirs); err != nil {
			return nil, err
		}
		s.addDaemons(f.names, f.replays)
		if err := s.prefill(ctx, f.series(), hist, 64); err != nil {
			s.close()
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer s.close()

	r := &result{e2e: map[string]float64{"setup_s": quantile(setupS, 0.5)}}
	openDur, closedDur := c.phases(seconds)
	m := startMeasure(tr)
	var t tally
	t0 := now() + int64(5*time.Millisecond)
	t.add(r, openLoop(s, f, c.openRate, t0, openDur))
	sat, gs := closedLoop(s, f, closedDur)
	t.add(r, gs)
	m.stop(tr)
	sat.record(r)
	r.e2e["store_p50_us"] = quantile(steady(t.lat, t0, openDur), 0.5)
	r.e2e["store_p99_us"] = windowQuantile(t.lat, t0, openDur, 0.99)
	r.e2eP50 = r.e2e["store_p50_us"]
	t.reduce()
	r.e2e["heap_mb"] = heapMB(heap0)

	r.check("replay", t.desync == 0, "%d Steps found their replay off an epoch boundary or out of tape", t.desync)
	checkWindows(r, s, f, quorum)
	stored := delta(m.c0, m.c1, "nws_memory_points_stored_total")
	r.check("stored", stored == float64(3*f.measured()), "points stored %.0f, want 3 replicas × %d measurements", stored, f.measured())

	var recovery time.Duration
	if durable {
		before := s.digests()
		var err error
		if recovery, err = s.reopen(); err != nil {
			return nil, err
		}
		after := s.digests()
		same := len(before) == len(after)
		for i := 0; same && i < len(before); i++ {
			same = slices.Equal(before[i], after[i])
		}
		r.check("digests", same, "every replica's digests after reopen equal those before close: %v", same)
		r.e2e["recovery_s"] = recovery.Seconds()
	}
	r.e2e["error_rate"] = float64(r.failed) / float64(r.attempted)
	if tr != nil {
		children := tr.link()
		r.layers = replicatedLayers(tr, children, r, m, &t, f, durable)
		if durable {
			points := float64(3 * s.retained())
			r.layers["persist.log_bytes_per_point"] = ratio(float64(s.stateBytes()), points)
			r.layers["persist.replay_points_per_s"] = points / recovery.Seconds()
		}
	}
	return r, nil
}

// rounds is the forecast workload's record of its synchronised rounds.
type rounds struct {
	due, refreshStart, refreshEnd []int64
}

// round is one synchronised round: every host Steps, late from due as the
// burst goes on, then the forecaster refreshes and pushes. It returns when
// the refresh started and ended.
func round(s *stack, g *stepper, due int64) (start, end int64) {
	for _, k := range g.f.in.order {
		g.step(k, due)
	}
	start = now()
	if s.tr != nil && s.tr.on.Load() {
		s.tr.add("round.burst", roundKey, due, start)
	}
	s.refresh()
	return start, now()
}

// pushes collects what the subscribers received, per nws_hybrid series.
type pushes struct {
	mu       sync.Mutex
	evs      [][]pushEvent
	received int
}

func (p *pushes) reset(series int) {
	p.mu.Lock()
	p.evs, p.received = make([][]pushEvent, series), 0
	p.mu.Unlock()
}

// on records one push. Once the tallies are read (evs is nil), the
// subscriptions' failures on close are not recorded.
func (p *pushes) on(i int, ev pushEvent) {
	p.mu.Lock()
	if p.evs != nil {
		p.evs[i] = append(p.evs[i], ev)
		p.received++
	}
	p.mu.Unlock()
}

func (p *pushes) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.received
}

// setupForecast stands up the forecast stack for fleet f: the cluster, the
// daemons, the prefilled history, the warmed forecaster and a subscription
// to every nws_hybrid series. It returns the stack and each series'
// measurement count at subscribe time.
func setupForecast(ctx context.Context, c config, tr *tracer, f *fleet, hist [][][2]float64, hybrid []string, p *pushes) (*stack, []int, error) {
	p.reset(len(hybrid))
	s, err := startCluster(ctx, tr, 3, c.capacity)
	if err != nil {
		return nil, nil, err
	}
	s.addDaemons(f.names, f.replays)
	var base []int
	if err = s.prefill(ctx, f.series(), hist, 64); err == nil {
		if err = s.startForecaster(ctx); err == nil {
			base, err = s.subscribe(hybrid, min(runtime.NumCPU(), 2), now, p.on)
		}
	}
	if err != nil {
		s.close()
		return nil, nil, err
	}
	return s, base, nil
}

// hybridSeries lists every host's nws_hybrid series key, in host order.
func hybridSeries(f *fleet) []string {
	out := make([]string, len(f.names))
	for k, n := range f.names {
		out[k] = seriesKey(n, 2)
	}
	return out
}

// pushStats is what the traced run's layers take from the pushes: push lag
// (arrival − refresh start) and delivery (arrival − refresh end), in ms.
type pushStats struct {
	lagP50, lagP99, deliveryP50 float64
}

// runForecast is the forecast workload: a 3-node rf=2 cluster behind a lease
// registry, the fleet storing in synchronised rounds through one
// ClusterClient, a ForecasterService refreshed after every round and pushing
// to subscribers of every nws_hybrid series, and a scheduler querying
// forecasts at a fixed rate with Zipf-skewed keys.
func runForecast(c config, in *inputs, seconds float64, tr *tracer, setups int) (*result, error) {
	ctx := context.Background()
	var s *stack
	var f *fleet
	var setupS []float64
	var base []int
	var p pushes
	heap0 := liveHeap()
	hist := newFleet(in).history()
	for i := 0; i < setups; i++ {
		if s != nil {
			s.close()
		}
		f = newFleet(in)
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, base, err = setupForecast(ctx, c, tr, f, hist, hybridSeries(f), &p); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer s.close()
	hybrid := hybridSeries(f)

	r := &result{e2e: map[string]float64{"setup_s": quantile(setupS, 0.5)}}
	openDur, closedDur := c.phases(seconds)
	nRounds := int(openDur / c.round)
	nQueries := len(in.keys)
	h0, miss0 := s.cacheStats()
	m := startMeasure(tr)

	rd := rounds{}
	rg := &stepper{s: s, f: f}
	var qLat []sample
	var qLag []float64
	answered, qFailed, implausible := 0, 0, 0
	t0 := now() + int64(5*time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the fleet: synchronised store rounds, each followed by a refresh
		defer wg.Done()
		for rn := 0; rn < nRounds; rn++ {
			due := t0 + int64(rn)*int64(c.round)
			sleepUntil(due)
			rs, re := round(s, rg, due)
			rd.due = append(rd.due, due)
			rd.refreshStart = append(rd.refreshStart, rs)
			rd.refreshEnd = append(rd.refreshEnd, re)
		}
	}()
	go func() { // the scheduler: open-loop forecast queries
		defer wg.Done()
		gap := 1e9 / c.qRate
		for j := 0; j < nQueries; j++ {
			due := t0 + int64(float64(j)*gap)
			sleepUntil(due)
			start := now()
			k := in.keys[j]
			n, v, err := s.query(hybrid[k])
			qLag = append(qLag, float64(start-due)/1e6)
			if err != nil {
				qFailed++
				qLat = append(qLat, sample{due, math.Inf(1)})
				continue
			}
			qLat = append(qLat, sample{due, float64(now()-due) / 1e3})
			answered++
			// A forecast covers the prefilled history and at most every
			// round stored since.
			if n < base[k] || n > base[k]+nRounds || math.IsNaN(v) || math.IsInf(v, 0) {
				implausible++
			}
		}
	}()
	wg.Wait()
	// Wait for the last round's pushes before reading the tallies.
	want := nRounds * in.hosts
	for deadline := now() + int64(2*time.Second); now() < deadline && p.count() < want; {
		time.Sleep(time.Millisecond)
	}
	hits, misses := s.cacheStats()
	sat, gs := closedLoop(s, f, closedDur)
	m.stop(tr)
	sat.record(r)

	var t tally
	t.add(r, []*stepper{rg})
	t.add(r, gs)
	r.e2e["store_p50_us"] = quantile(steady(t.lat, t0, openDur), 0.5)
	r.e2e["store_p99_us"] = windowQuantile(t.lat, t0, openDur, 0.99)
	r.attempted += nQueries
	r.failed += qFailed
	r.e2e["query_p50_us"] = quantile(steady(qLat, t0, openDur), 0.5)
	r.e2e["query_p99_us"] = windowQuantile(qLat, t0, openDur, 0.99)
	t.lag = append(t.lag, qLag...)

	// Freshness, push lag and one-step-ahead error, per series and round.
	p.mu.Lock()
	var fresh []sample
	var pushLag, delivery []float64
	var absErr float64
	nErr, missing := 0, 0
	for i := range hybrid {
		_, trc := in.host(i)
		evs := p.evs[i]
		e := 0
		for rn := 0; rn < nRounds; rn++ {
			need := base[i] + rn + 1
			for e < len(evs) && (evs[e].err || evs[e].n < need) {
				e++
			}
			if e == len(evs) {
				missing += nRounds - rn
				for ; rn < nRounds; rn++ {
					fresh = append(fresh, sample{rd.due[rn], math.Inf(1)})
				}
				break
			}
			ev := evs[e]
			fresh = append(fresh, sample{rd.due[rn], float64(ev.at-rd.due[rn]) / 1e6})
			if ev.n == need {
				pushLag = append(pushLag, float64(ev.at-rd.refreshStart[rn])/1e6)
				delivery = append(delivery, float64(ev.at-rd.refreshEnd[rn])/1e6)
				if rn+1 < nRounds {
					absErr += math.Abs(ev.value - trc.liveV[rn+1][2])
					nErr++
				}
			}
		}
	}
	got := p.received
	p.evs = nil
	p.mu.Unlock()
	r.attempted += want
	r.failed += missing
	r.e2e["fresh_p50_ms"] = quantile(steady(fresh, t0, openDur), 0.5)
	r.e2e["fresh_p99_ms"] = windowQuantile(fresh, t0, openDur, 0.99)
	r.e2e["forecast_mae"] = absErr / float64(max(nErr, 1))
	r.e2eP50 = r.e2e["fresh_p50_ms"] * 1e3
	r.e2e["error_rate"] = float64(r.failed) / float64(r.attempted)
	ps := pushStats{quantile(pushLag, 0.5), quantile(pushLag, 0.99), quantile(delivery, 0.5)}
	t.reduce()
	qLat, qLag = nil, nil // released before the heap reading, like the tally's samples
	r.e2e["heap_mb"] = heapMB(heap0)

	r.check("replay", t.desync == 0, "%d Steps found their replay off an epoch boundary or out of tape", t.desync)
	checkWindows(r, s, f, replication)
	stored := delta(m.c0, m.c1, "nws_memory_points_stored_total")
	r.check("stored", stored == float64(replication*f.measured()),
		"points stored %.0f, want %d owners × %d measurements", stored, replication, f.measured())
	sent := delta(m.c0, m.c1, "nws_forecast_pushes_total")
	dropped := delta(m.c0, m.c1, "nws_forecast_pushes_dropped_total")
	r.check("pushes", float64(got)+dropped == sent && got+int(dropped) >= want,
		"received %d + dropped %.0f = sent %.0f; %d rounds × %d series expected", got, dropped, sent, nRounds, in.hosts)
	r.check("queries", answered+qFailed == nQueries && implausible == 0,
		"%d answered + %d failed of %d queries; %d answers outside the series' stored count or not finite",
		answered, qFailed, nQueries, implausible)

	if tr != nil {
		tr.link()
		r.layers = forecastLayers(tr, r, m, &t, f, ps, hits-h0, misses-miss0, nRounds)
	}
	return r, nil
}
