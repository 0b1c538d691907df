package main

// Seeded, program-independent inputs: simulated host traces (simos plus the
// workload profiles), replayed through a benchmark-side sensors.Host so the
// timed loop never runs the scheduler simulator; the open-loop host order;
// and the scheduler's Zipf-skewed query keys. The seed alone determines all
// of them, before any server starts.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"nwscpu/internal/sensors"
	"nwscpu/internal/simos"
	"nwscpu/internal/workload"
)

// period is the NWS measurement cadence, in simulated seconds.
const period = 10.0

// sensorNames are SensorDaemon's sensors, in the order Step measures them.
var sensorNames = [3]string{"load_average", "vmstat", "nws_hybrid"}

// newSensors builds the sensor set a SensorDaemon builds over h.
func newSensors(h sensors.Host) []sensors.Sensor {
	return []sensors.Sensor{
		sensors.NewLoadAvgSensor(h),
		sensors.NewVmstatSensor(h, 0),
		sensors.NewHybridSensor(h, sensors.DefaultHybridConfig()),
	}
}

// trace is one simulated host's measurement history: capacity points of
// prefilled history, then live epochs. The tape holds every value the
// daemon's sensors read from the host during the live epochs, in call order.
type trace struct {
	preT   []float64
	preV   [][3]float64
	liveT  []float64
	liveV  [][3]float64 // what the daemon's sensors measure from the tape
	tape   []float64
	offset []int // tape position at the start of each live epoch; len = epochs+1
}

// recorder wraps a simulated host and appends every answer to a tape.
type recorder struct {
	h    sensors.Host
	tape []float64
}

func (r *recorder) put(v float64) float64 { r.tape = append(r.tape, v); return v }
func (r *recorder) Now() float64          { return r.put(r.h.Now()) }
func (r *recorder) LoadAvg() float64      { return r.put(r.h.LoadAvg()) }
func (r *recorder) RunQueue() int         { return int(r.put(float64(r.h.RunQueue()))) }
func (r *recorder) RunSpin(w float64) float64 {
	return r.put(r.h.RunSpin(w))
}
func (r *recorder) NumCPUs() int { return int(r.put(float64(r.h.NumCPUs()))) }
func (r *recorder) CPUTimes() sensors.CPUTimes {
	c := r.h.CPUTimes()
	r.tape = append(r.tape, c.User, c.Nice, c.Sys, c.Idle, c.Total)
	return c
}

// replay is a sensors.Host answering from a recorded tape. Each daemon gets
// its own cursor over a shared tape.
type replay struct {
	tr  *trace
	pos int
}

func (r *replay) next() float64 { v := r.tr.tape[r.pos]; r.pos++; return v }
func (r *replay) Now() float64  { return r.next() }
func (r *replay) LoadAvg() float64 {
	return r.next()
}
func (r *replay) RunQueue() int           { return int(r.next()) }
func (r *replay) RunSpin(float64) float64 { return r.next() }
func (r *replay) NumCPUs() int            { return int(r.next()) }
func (r *replay) CPUTimes() sensors.CPUTimes {
	return sensors.CPUTimes{User: r.next(), Nice: r.next(), Sys: r.next(), Idle: r.next(), Total: r.next()}
}

// epoch reports the live epoch the next Step will measure, or -1 when the
// cursor is off an epoch boundary (the replay desynchronised).
func (r *replay) epoch(done int) int {
	if done >= len(r.tr.offset) || r.tr.offset[done] != r.pos {
		return -1
	}
	return done
}

// genTrace simulates host trace j of a seed: a paper host profile with a
// seed-derived job stream, started at a seed-derived time of day.
func genTrace(seed int64, j, capacity, epochs int) *trace {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(j)))
	start := float64(rng.Intn(180)) * period // up to 30 simulated minutes in
	horizon := start + float64(capacity+epochs+2)*period
	profs := workload.Profiles(horizon)
	p := profs[j%len(profs)]
	p.Seed = rng.Int63()
	sim := simos.New(simos.DefaultConfig())
	workload.Submit(sim, p.Generate(horizon))
	host := sensors.SimHost{H: sim}

	tr := &trace{}
	pre := newSensors(host)
	for e := 0; e < capacity; e++ {
		sim.RunUntil(start + float64(e)*period)
		tr.preT = append(tr.preT, host.Now())
		var v [3]float64
		for k, s := range pre {
			v[k] = s.Measure()
		}
		tr.preV = append(tr.preV, v)
	}
	// The live epochs are measured by fresh sensors, exactly as a daemon
	// constructed at the first timed Step would measure them.
	rec := &recorder{h: host}
	live := newSensors(rec)
	for e := 0; e < epochs; e++ {
		sim.RunUntil(start + float64(capacity+e)*period)
		tr.offset = append(tr.offset, len(rec.tape))
		tr.liveT = append(tr.liveT, rec.Now())
		var v [3]float64
		for k, s := range live {
			v[k] = s.Measure()
		}
		tr.liveV = append(tr.liveV, v)
	}
	tr.offset = append(tr.offset, len(rec.tape))
	tr.tape = rec.tape
	return tr
}

// inputs is everything a workload feeds the stack.
type inputs struct {
	traces []*trace
	hosts  int
	order  []int // open-loop host order within one fleet round
	keys   []int // query key sequence (indices of nws_hybrid series)
}

// host returns host k's name and trace.
func (in *inputs) host(k int) (string, *trace) {
	return fmt.Sprintf("h%04d", k), in.traces[k%len(in.traces)]
}

// genInputs builds a workload's inputs from the seed alone. Traces are
// simulated on two goroutines; each depends only on (seed, index).
func genInputs(seed int64, hosts, nTraces, capacity, epochs, nQueries int) *inputs {
	in := &inputs{traces: make([]*trace, nTraces), hosts: hosts}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < nTraces; j += 2 {
				in.traces[j] = genTrace(seed, j, capacity, epochs)
			}
		}(w)
	}
	wg.Wait()
	rng := rand.New(rand.NewSource(seed))
	in.order = rng.Perm(hosts)
	if nQueries > 0 {
		z := newZipf(hosts, zipfAlpha)
		in.keys = make([]int, nQueries)
		for i := range in.keys {
			// Zipf ranks map through the seeded order, so the hot keys
			// differ from seed to seed.
			in.keys[i] = in.order[z.rank(rng.Float64())]
		}
	}
	return in
}

// zipfAlpha is the skew of the scheduler's query keys: the key of rank i is
// asked for in proportion to 1/i^alpha. Request popularity at shared web
// caches follows this law with alpha between 0.64 and 0.83 (Breslau et al.,
// "Web Caching and Zipf-like Distributions", INFOCOM 1999); the forecast
// cache is the same kind of shared cache, and no NWS query trace exists.
const zipfAlpha = 0.8

// zipf draws ranks 0..n-1 with P(i) proportional to 1/(i+1)^alpha, by
// inverting the cumulative distribution. math/rand's Zipf needs alpha > 1.
type zipf struct{ cdf []float64 }

func newZipf(n int, alpha float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return zipf{cdf}
}

// rank maps a uniform draw u in [0, 1) to a rank.
func (z zipf) rank(u float64) int {
	return min(sort.SearchFloat64s(z.cdf, u), len(z.cdf)-1)
}

// hash is a SHA-256 over every generated input, in a fixed order.
func (in *inputs) hash() string {
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	puti := func(v int) { put(float64(v)) }
	puti(in.hosts)
	for _, tr := range in.traces {
		for i, t := range tr.preT {
			put(t)
			for _, v := range tr.preV[i] {
				put(v)
			}
		}
		for _, v := range tr.tape {
			put(v)
		}
		for _, o := range tr.offset {
			puti(o)
		}
	}
	for _, v := range in.order {
		puti(v)
	}
	for _, v := range in.keys {
		puti(v)
	}
	return hex.EncodeToString(h.Sum(nil))
}
