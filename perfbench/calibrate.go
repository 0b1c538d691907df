package main

// The forecast workload's traffic is derived from two figures measured on its
// own stack; --calibrate measures them and prints the rates they give.

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

const (
	busyRounds  = 40 // back-to-back rounds timed for the busy figure
	qsatSeconds = 3  // length of the closed-loop query phase
	qsatRounds  = 100
)

// calibrate stands up the forecast stack once and measures
//
//   - busy: the median time of one round (the fleet's store burst plus
//     RefreshNow and its pushes) over back-to-back rounds, no queries running;
//   - qsat: Client.Forecast calls per second from one closed-loop scheduler
//     goroutine while rounds run at the derived period.
//
// The round period is 3 × busy rounded up to 10 ms, so the fleet and the
// forecaster are busy a third of every round; the query rate is half of qsat,
// as ingest offers half of its closed-loop rate.
func calibrate(seed int64) error {
	ctx := context.Background()
	c := configs["forecast"]
	in := genInputs(seed, c.hosts, c.traces, c.capacity, busyRounds+qsatRounds+2, 1<<14)
	f := newFleet(in)
	var p pushes
	s, _, err := setupForecast(ctx, c, nil, f, newFleet(in).history(), hybridSeries(f), &p)
	if err != nil {
		return err
	}
	defer s.close()

	g := &stepper{s: s, f: f}
	busy := make([]float64, busyRounds)
	for i := range busy {
		due := now()
		_, end := round(s, g, due)
		busy[i] = float64(end-due) / 1e6
	}
	b := quantile(busy, 0.5)
	period := time.Duration(math.Ceil(3*b/10)*10) * time.Millisecond

	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := now()
		for rn := 0; rn < qsatRounds && !stop.Load(); rn++ {
			sleepUntil(t)
			round(s, g, t)
			t += int64(period)
		}
	}()
	hybrid := hybridSeries(f)
	n, qFailed := 0, 0
	start := now()
	for end := start + int64(qsatSeconds*time.Second); now() < end; n++ {
		if _, _, err := s.query(hybrid[in.keys[n%len(in.keys)]]); err != nil {
			qFailed++
		}
	}
	qsat := float64(n) / (float64(now()-start) / 1e9)
	stop.Store(true)
	<-done

	fmt.Printf("busy (burst + refresh) p50 %.2f ms over %d rounds of %d hosts\n", b, busyRounds, c.hosts)
	fmt.Printf("qsat %.0f queries/s from one goroutine with rounds every %v (%d failed)\n", qsat, period, qFailed)
	fmt.Printf("derived: round %v, %.0f queries/s; in use: round %v, %.0f queries/s\n", period, qsat/2, c.round, c.qRate)
	if qFailed > 0 || g.failed > 0 {
		return fmt.Errorf("%d queries and %d Steps failed", qFailed, g.failed)
	}
	return nil
}
