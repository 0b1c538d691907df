package main

import (
	"math/rand"
	"testing"
)

func smallInputs(seed int64) *inputs { return genInputs(seed, 8, 4, 12, 20, 50) }

// The seed alone determines every input: the same seed hashes identically,
// another seed differently.
func TestInputHashDependsOnlyOnSeed(t *testing.T) {
	a, b, c := smallInputs(7).hash(), smallInputs(7).hash(), smallInputs(8).hash()
	if a != b {
		t.Fatalf("same seed, different input hashes: %s vs %s", a, b)
	}
	if a == c {
		t.Fatalf("seeds 7 and 8 gave the same input hash %s", a)
	}
}

// A daemon's fresh sensors reading a replayed tape measure exactly what the
// recording sensors measured on the simulated host, epoch by epoch.
func TestReplayReproducesMeasurements(t *testing.T) {
	in := smallInputs(3)
	for j, tr := range in.traces {
		r := &replay{tr: tr}
		live := newSensors(r)
		for e := range tr.liveT {
			if r.epoch(e) != e {
				t.Fatalf("trace %d: cursor off epoch %d boundary", j, e)
			}
			if now := r.Now(); now != tr.liveT[e] {
				t.Fatalf("trace %d epoch %d: clock %v, want %v", j, e, now, tr.liveT[e])
			}
			for k, s := range live {
				if v := s.Measure(); v != tr.liveV[e][k] {
					t.Fatalf("trace %d epoch %d %s: %v, want %v", j, e, sensorNames[k], v, tr.liveV[e][k])
				}
			}
		}
	}
}

// Spans nest by interval containment within a key, share their root's ID,
// and a parent's self time excludes what its children cover.
func TestLinkNestsByContainment(t *testing.T) {
	tr := &tracer{}
	tr.add("step", "h1", 0, 100)
	tr.add("replica.store", "h1", 10, 90)
	tr.add("replica.call", "h1", 20, 40)
	tr.add("memory.exec", "h1", 25, 30)
	tr.add("replica.call", "h1", 50, 80)
	tr.add("step", "h2", 5, 60) // another host, overlapping in time
	tr.link()
	sp := tr.spans
	if sp[0].parent != -1 || sp[1].parent != 0 || sp[2].parent != 1 || sp[3].parent != 2 || sp[4].parent != 1 || sp[5].parent != -1 {
		t.Fatalf("parents: %+v", sp)
	}
	if sp[3].id != sp[0].id || sp[5].id == sp[0].id {
		t.Fatalf("ids: %+v", sp)
	}
	if got := sp[1].self(); got != 80-20-30 {
		t.Fatalf("replica.store self = %d, want 30", got)
	}
	if got := sp[2].self(); got != 15 {
		t.Fatalf("replica.call self = %d, want 15", got)
	}
}

// Zipf ranks stay in range, and a lower rank is drawn more often.
func TestZipfRanks(t *testing.T) {
	z := newZipf(16, zipfAlpha)
	if z.rank(0) != 0 || z.rank(0.9999999999) != 15 {
		t.Fatalf("rank(0) = %d, rank(1-) = %d", z.rank(0), z.rank(0.9999999999))
	}
	rng := rand.New(rand.NewSource(1))
	var n [16]int
	for i := 0; i < 100000; i++ {
		n[z.rank(rng.Float64())]++
	}
	if n[0] <= n[1] || n[1] <= n[7] || n[7] <= n[15] {
		t.Fatalf("rank counts not falling: %v", n)
	}
}
