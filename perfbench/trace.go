package main

// Tracing from outside the program: spans recorded by the timing wrappers in
// stack.go and by the generators, kept in memory and written out when the
// run ends, plus deltas of the counters the program already exports in
// metrics.Default.

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nwscpu/internal/metrics"
)

// epoch is the run's clock origin; every timestamp is ns since it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// span is one timed call at a layer boundary. The ID cannot cross the wire,
// so spans are linked after the run: a span's parent is the innermost span
// with the same key whose interval contains it (a server handler span lands
// inside the client call that carried its request), and every span of one
// Step, query or round shares the ID of its root.
type span struct {
	name       string
	key        string
	start, end int64
	parent, id int
	cover      int64 // part of the interval the children cover
}

func (s *span) dur() int64  { return s.end - s.start }
func (s *span) self() int64 { return s.dur() - s.cover }

type tracer struct {
	on    atomic.Bool
	drop  map[string]bool // keys not sampled; read-only once tracing starts
	mu    sync.Mutex
	spans []span
}

// spanSample keeps the spans of one host in this many: enough operations
// for stable medians, a quarter of the memory and output. Rounds and
// queries are always kept.
const spanSample = 4

// newTracer samples hosts k with k % spanSample == 0.
func newTracer(hosts []string) *tracer {
	t := &tracer{drop: make(map[string]bool)}
	for k, h := range hosts {
		if k%spanSample != 0 {
			t.drop[h] = true
		}
	}
	return t
}

func (t *tracer) add(name, key string, start, end int64) {
	if t.drop[key] {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, key: key, start: start, end: end})
	t.mu.Unlock()
}

// depth orders spans that share both endpoints: outer layers first.
var depth = map[string]int{
	"round.burst": 0, "forecaster.refresh": 0, "query": 0, "step": 0,
	"forecaster.fetch": 1, "replica.store": 1, "cluster.store": 1,
	"replica.call": 2, "forecaster.exec": 2,
	"cluster.exec": 3, "persist.exec": 4, "memory.exec": 4,
}

// link assigns parents, operation IDs and covered time. Call once, after
// recording stopped.
func (t *tracer) link() (children [][]int) {
	sp := t.spans
	byKey := make(map[string][]int)
	for i := range sp {
		byKey[sp[i].key] = append(byKey[sp[i].key], i)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children = make([][]int, len(sp))
	lastEnd := make([]int64, len(sp))
	id := 0
	for _, k := range keys {
		idx := byKey[k]
		sort.Slice(idx, func(a, b int) bool {
			x, y := &sp[idx[a]], &sp[idx[b]]
			if x.start != y.start {
				return x.start < y.start
			}
			if x.end != y.end {
				return x.end > y.end
			}
			return depth[x.name] < depth[y.name]
		})
		var stack []int
		for _, i := range idx {
			s := &sp[i]
			for len(stack) > 0 {
				top := &sp[stack[len(stack)-1]]
				if top.start <= s.start && s.end <= top.end {
					break
				}
				stack = stack[:len(stack)-1]
			}
			if len(stack) == 0 {
				id++
				s.parent, s.id = -1, id
			} else {
				p := stack[len(stack)-1]
				s.parent, s.id = p, sp[p].id
				children[p] = append(children[p], i)
				from := max(s.start, lastEnd[p], sp[p].start)
				if s.end > from {
					sp[p].cover += s.end - from
				}
				lastEnd[p] = max(lastEnd[p], s.end)
			}
			stack = append(stack, i)
		}
	}
	return children
}

// write stores the spans as CSV: id,parent,name,key,start_ns,end_ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,key,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%s,%d,%d\n", s.id, s.parent, s.name, s.key, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durs returns the durations (or self times) of every span named name, in µs.
func (t *tracer) durs(name string, self bool) []float64 {
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.name == name {
			d := s.dur()
			if self {
				d = s.self()
			}
			out = append(out, float64(d)/1e3)
		}
	}
	return out
}

func (t *tracer) count(name string) int {
	n := 0
	for i := range t.spans {
		if t.spans[i].name == name {
			n++
		}
	}
	return n
}

// perStore sums, for each span named outer, the self time of its children
// and the duration of its grandchildren (µs): the wire overhead and the
// handler execution one store paid across its replica calls.
func (t *tracer) perStore(children [][]int, outer string) (wire, exec []float64) {
	for i := range t.spans {
		if t.spans[i].name != outer {
			continue
		}
		var w, e int64
		for _, c := range children[i] {
			w += t.spans[c].self()
			for _, g := range children[c] {
				e += t.spans[g].dur()
			}
		}
		wire, exec = append(wire, float64(w)/1e3), append(exec, float64(e)/1e3)
	}
	return wire, exec
}

// quantile is the q-quantile of xs by linear interpolation (xs is sorted in
// place). +Inf entries (failed operations) sort last. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	if math.IsInf(xs[lo+1], 1) {
		return xs[lo+1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// counters sums every counter and gauge family of metrics.Default across
// its label values.
func counters() map[string]float64 {
	out := make(map[string]float64)
	for _, f := range metrics.Default.Snapshot() {
		if f.Type != "counter" && f.Type != "gauge" {
			continue
		}
		for _, m := range f.Metrics {
			out[f.Name] += m.Value
		}
	}
	return out
}

// delta is after-before for one counter.
func delta(before, after map[string]float64, name string) float64 {
	return after[name] - before[name]
}

// gaugeMax samples a gauge family every interval until stop is closed and
// reports the largest sum over its labels.
type gaugeMax struct {
	stop chan struct{}
	done chan struct{}
	max  float64
}

func sampleGauge(name string, every time.Duration) *gaugeMax {
	g := &gaugeMax{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if v := counters()[name]; v > g.max {
				g.max = v
			}
			select {
			case <-g.stop:
				return
			case <-t.C:
			}
		}
	}()
	return g
}

// finish stops sampling and returns the maximum seen.
func (g *gaugeMax) finish() float64 {
	close(g.stop)
	<-g.done
	return g.max
}
