package main

// Every call into internal/nwsnet lives in this file, so a change to the
// daemons' constructors is a one-file change to the benchmark. The stacks are
// composed the way cmd/nwsd composes them: NewServerLimits with nwsd's default
// flag values over Memory, PersistentMemory or ClusterNode handlers; a
// ReplicaGroup or ClusterClient as the sensors' store backend; SensorDaemon;
// ForecasterService; MuxConn subscribers. With a tracer the same constructors
// receive the timing wrappers at the bottom of this file instead of the bare
// values; nothing else differs between the untraced and the traced stack.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nwscpu/internal/nwsnet"
	"nwscpu/internal/nwsnet/cluster"
	"nwscpu/internal/resilience"
	"nwscpu/internal/sensors"
)

// nwsdLimits are cmd/nwsd's default server-role flags: no connection or
// in-flight caps, -queue-wait 100ms, -idle-timeout 5m, -write-timeout 30s,
// no tenant quotas.
var nwsdLimits = nwsnet.ServerLimits{
	QueueWait:    100 * time.Millisecond,
	IdleTimeout:  5 * time.Minute,
	WriteTimeout: 30 * time.Second,
}

const (
	loopback    = "127.0.0.1:0"
	leaseTTL    = 10 * time.Second // registry lease TTL; agents renew every third
	quorum      = 2                // of 3 replicas
	replication = 2                // cluster owners per series key
)

// daemonClient is the client NewSensorDaemonReplicasCodec gives a daemon;
// the fleet under test shares one.
func daemonClient() *nwsnet.Client {
	return nwsnet.NewClientOptions(nwsnet.ClientOptions{
		Retry:   resilience.Policy{MaxAttempts: 2, BaseDelay: 10 * time.Millisecond},
		Breaker: &resilience.BreakerConfig{OpenFor: -1},
		Codec:   nwsnet.CodecBinary,
	})
}

// forecasterClient is the client NewForecasterServiceReplicasCodec builds.
func forecasterClient() *nwsnet.Client {
	return nwsnet.NewClientOptions(nwsnet.ClientOptions{
		Timeout: 5 * time.Second,
		Codec:   nwsnet.CodecBinary,
		Retry:   resilience.Policy{MaxAttempts: 2, BaseDelay: 25 * time.Millisecond},
		Breaker: &resilience.BreakerConfig{OpenFor: -1},
	})
}

// stack is one running deployment: storage servers, the fleet's shared
// store path, and, for the forecast workload, the read plane.
type stack struct {
	tr       *tracer // nil: untraced
	capacity int

	srvs  []*nwsnet.Server
	addrs []string
	pms   []*nwsnet.PersistentMemory
	dirs  []string

	nsSrv  *nwsnet.Server
	nsAddr string
	agents []*nwsnet.ClusterAgent

	client  *nwsnet.Client      // the fleet's shared store client
	backend nwsnet.StoreBackend // what the daemons store through
	daemons []*nwsnet.SensorDaemon
	names   []string

	fc       *nwsnet.ForecasterService
	fcSrv    *nwsnet.Server
	fcAddr   string
	fcClient *nwsnet.Client
	qClient  *nwsnet.Client
	muxes    []*nwsnet.MuxConn
}

// serve starts one protocol server over h on a loopback port.
func (s *stack) serve(h nwsnet.Handler) (*nwsnet.Server, string, error) {
	srv := nwsnet.NewServerLimits(h, nil, nwsdLimits)
	addr, err := srv.Listen(loopback)
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	return srv, addr, nil
}

// startReplicated stands up n replicas — in-memory, or durable under dirs
// when dirs is non-nil — behind one ReplicaGroup (quorum 2) over the fleet's
// shared client.
func startReplicated(tr *tracer, n, capacity int, dirs []string) (*stack, error) {
	s := &stack{tr: tr, capacity: capacity, dirs: dirs}
	for i := 0; i < n; i++ {
		var h nwsnet.Handler
		if dirs != nil {
			pm, err := nwsnet.NewPersistentMemory(capacity, dirs[i])
			if err != nil {
				s.close()
				return nil, err
			}
			s.pms = append(s.pms, pm)
			h = s.wrapHandler(pm, "persist.exec")
		} else {
			h = s.wrapHandler(nwsnet.NewMemory(capacity), "memory.exec")
		}
		srv, addr, err := s.serve(h)
		if err != nil {
			s.close()
			return nil, err
		}
		s.srvs, s.addrs = append(s.srvs, srv), append(s.addrs, addr)
	}
	s.client = daemonClient()
	var tp nwsnet.Transport = s.client
	if tr != nil {
		tp = &traceTransport{Transport: s.client, tr: tr}
	}
	s.backend = s.wrapStore(nwsnet.NewReplicaGroupTransport(tp, s.addrs, quorum), "replica.store")
	return s, nil
}

// startCluster stands up a lease registry and n ClusterNode members (rf=2)
// joined through ClusterAgents, with the fleet storing through one
// ClusterClient over its shared client.
func startCluster(ctx context.Context, tr *tracer, n, capacity int) (*stack, error) {
	s := &stack{tr: tr, capacity: capacity}
	var err error
	ns := nwsnet.NewNameServerCluster(leaseTTL, cluster.Config{Replication: replication})
	if s.nsSrv, s.nsAddr, err = s.serve(ns); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		mem := nwsnet.NewMemory(capacity)
		id := fmt.Sprintf("node-%d", i)
		node := nwsnet.NewClusterNodeHandler(id, s.wrapHandler(mem, "memory.exec"), mem)
		srv, addr, err := s.serve(s.wrapHandler(node, "cluster.exec"))
		if err != nil {
			s.close()
			return nil, err
		}
		s.srvs, s.addrs = append(s.srvs, srv), append(s.addrs, addr)
		agent := nwsnet.NewClusterAgent(nil, s.nsAddr, cluster.Member{
			ID: id, Kind: string(nwsnet.KindMemory), Addr: addr,
		}, node)
		if _, err := agent.Start(ctx, leaseTTL/3); err != nil {
			agent.Close()
			s.close()
			return nil, fmt.Errorf("join %s: %w", id, err)
		}
		s.agents = append(s.agents, agent)
	}
	// Members that joined early hold an older view; one renewal each brings
	// every node to the final epoch before traffic starts.
	for _, a := range s.agents {
		if _, err := a.Renew(ctx); err != nil {
			s.close()
			return nil, fmt.Errorf("renew: %w", err)
		}
	}
	s.client = daemonClient()
	s.backend = s.wrapStore(nwsnet.NewClusterClient(s.client, s.nsAddr), "cluster.store")
	return s, nil
}

// addDaemons builds one SensorDaemon per host, all delivering through the
// stack's shared backend.
func (s *stack) addDaemons(names []string, hosts []*replay) {
	for i, h := range hosts {
		s.daemons = append(s.daemons, nwsnet.NewSensorDaemonBackend(names[i], h, s.backend, sensors.HybridConfig{}))
	}
	s.names = append(s.names, names...)
}

// seriesKey is the memory key a daemon stores sensor j of host under.
func seriesKey(host string, j int) string { return nwsnet.SeriesKey(host, sensorNames[j]) }

// hostOf recovers the host name from a series key.
func hostOf(key string) string {
	if i := strings.Index(key, "/cpu/"); i >= 0 {
		return key[:i]
	}
	return key
}

// prefill stores history through the fleet's backend in envelopes of the
// given size, so every series starts at capacity.
func (s *stack) prefill(ctx context.Context, series []string, points [][][2]float64, per int) error {
	for lo := 0; lo < len(series); lo += per {
		hi := min(lo+per, len(series))
		stores := make([]nwsnet.BatchStore, 0, hi-lo)
		for i := lo; i < hi; i++ {
			stores = append(stores, nwsnet.BatchStore{Series: series[i], Points: points[i]})
		}
		if _, err := s.backend.StoreBatch(ctx, stores); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	return nil
}

// step runs one SensorDaemon.Step; with a tracer on it records the "step"
// span around it.
func (s *stack) step(i int) error {
	if s.tr == nil || !s.tr.on.Load() {
		return s.daemons[i].Step()
	}
	t0 := now()
	err := s.daemons[i].Step()
	s.tr.add("step", s.names[i], t0, now())
	return err
}

// backlog reports daemon i's undelivered measurements.
func (s *stack) backlog(i int) int { return s.daemons[i].Backlogged() }

// startForecaster starts a ForecasterService pulling through its own
// ClusterClient, warms it on the stored history, marks its cache
// authoritative (RefreshNow is driven by the round generator) and serves it.
func (s *stack) startForecaster(ctx context.Context) error {
	s.fcClient = forecasterClient()
	var fb nwsnet.FetchBackend = nwsnet.NewClusterClient(s.fcClient, s.nsAddr)
	if s.tr != nil {
		fb = &traceFetch{FetchBackend: fb, tr: s.tr}
	}
	s.fc = nwsnet.NewForecasterServiceBackend(fb, 0)
	if _, err := s.fc.Warm(ctx, nil); err != nil {
		return fmt.Errorf("warm: %w", err)
	}
	s.fc.SetCacheServing(true)
	var h nwsnet.Handler = s.fc
	if s.tr != nil {
		h = &traceSubHandler{traceHandler{Handler: s.fc, tr: s.tr, name: "forecaster.exec"}, s.fc}
	}
	var err error
	if s.fcSrv, s.fcAddr, err = s.serve(h); err != nil {
		return err
	}
	s.qClient = nwsnet.NewClient(0)
	return nil
}

// pushEvent is one forecast push as a subscriber saw it.
type pushEvent struct {
	at    int64 // ns since the run's clock epoch
	n     int   // measurements behind the forecast
	value float64
	err   bool
}

// subscribe spreads subscriptions for series over conns MuxConns. onPush
// runs on a connection's reader goroutine with the series index. It returns
// each series' measurement count at subscribe time.
func (s *stack) subscribe(series []string, conns int, clock func() int64, onPush func(i int, ev pushEvent)) ([]int, error) {
	for c := 0; c < conns; c++ {
		m, err := nwsnet.DialMux(s.fcAddr, 0)
		if err != nil {
			return nil, err
		}
		s.muxes = append(s.muxes, m)
	}
	calls := make([]*nwsnet.MuxCall, len(series))
	for i, key := range series {
		i := i
		calls[i] = s.muxes[i%conns].Subscribe(key, func(r nwsnet.Response, err error) {
			ev := pushEvent{at: clock(), err: err != nil || r.Forecast == nil}
			if r.Forecast != nil {
				ev.n, ev.value = r.Forecast.N, r.Forecast.Value
			}
			onPush(i, ev)
		})
	}
	base := make([]int, len(series))
	for i, c := range calls {
		r, err := c.Wait()
		if err != nil {
			return nil, fmt.Errorf("subscribe %s: %w", series[i], err)
		}
		if r.Forecast == nil {
			return nil, fmt.Errorf("subscribe %s: no forecast in ack", series[i])
		}
		base[i] = r.Forecast.N
	}
	return base, nil
}

// refresh runs one read-plane maintenance pass (fetch, engine updates,
// pushes), recording the "forecaster.refresh" span when traced.
func (s *stack) refresh() {
	if s.tr == nil || !s.tr.on.Load() {
		s.fc.RefreshNow()
		return
	}
	t0 := now()
	s.fc.RefreshNow()
	s.tr.add("forecaster.refresh", roundKey, t0, now())
}

// query is one scheduler Client.Forecast round trip. It returns the
// forecast's measurement count and value.
func (s *stack) query(key string) (int, float64, error) {
	var t0 int64
	traced := s.tr != nil && s.tr.on.Load()
	if traced {
		t0 = now()
	}
	r, err := s.qClient.Forecast(s.fcAddr, key)
	if traced {
		s.tr.add("query", queryKey(key), t0, now())
	}
	if err == nil && r.N == 0 {
		err = fmt.Errorf("forecast %s: empty answer", key)
	}
	return r.N, r.Value, err
}

// cacheStats reports the forecaster's cache hits and misses.
func (s *stack) cacheStats() (hits, misses uint64) {
	h, m, _ := s.fc.CacheStats()
	return h, m
}

// fetchEach reads every series from every storage server directly — the
// correctness gate's per-replica view. Points come back per server, per
// series.
func (s *stack) fetchEach(series []string) ([][][][2]float64, error) {
	c := nwsnet.NewClient(0)
	defer c.Close()
	fetches := make([]nwsnet.BatchFetch, len(series))
	for i, k := range series {
		fetches[i] = nwsnet.BatchFetch{Series: k}
	}
	out := make([][][][2]float64, len(s.addrs))
	for a, addr := range s.addrs {
		out[a] = make([][][2]float64, len(series))
		for lo := 0; lo < len(fetches); lo += 256 {
			hi := min(lo+256, len(fetches))
			res, err := c.FetchBatch(addr, fetches[lo:hi])
			if err != nil {
				return nil, fmt.Errorf("fetch from %s: %w", addr, err)
			}
			for i, r := range res {
				out[a][lo+i] = r.Points // a series the server does not hold errors: nil
			}
		}
	}
	return out, nil
}

// digest is a series summary as the repair plane computes it.
type digest struct {
	series     string
	count, sum uint64
	frontier   float64
}

// digests returns every durable replica's per-series digests, sorted by
// series key.
func (s *stack) digests() [][]digest {
	out := make([][]digest, len(s.pms))
	for i, pm := range s.pms {
		for _, d := range pm.Memory.Digests("") {
			out[i] = append(out[i], digest{series: d.Series, count: d.Count, sum: d.Sum, frontier: d.Frontier})
		}
	}
	return out
}

// retained reports the points replica 0 holds in total.
func (s *stack) retained() int {
	n := 0
	for _, d := range s.pms[0].Memory.Digests("") {
		n += int(d.Count)
	}
	return n
}

// reopen stops the durable replicas' servers, closes their logs, and times
// reopening every replica (log replay). The reopened memories replace the
// closed ones for the digest comparison.
func (s *stack) reopen() (time.Duration, error) {
	s.closeServers()
	for _, pm := range s.pms {
		if err := pm.Close(); err != nil {
			return 0, fmt.Errorf("close log: %w", err)
		}
	}
	t0 := time.Now()
	for i, dir := range s.dirs {
		pm, err := nwsnet.NewPersistentMemory(s.capacity, dir)
		if err != nil {
			return 0, fmt.Errorf("reopen %s: %w", dir, err)
		}
		s.pms[i] = pm
	}
	return time.Since(t0), nil
}

// stateBytes sums the durable replicas' state-directory sizes.
func (s *stack) stateBytes() int64 {
	var n int64
	for _, dir := range s.dirs {
		filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
			if err == nil && !fi.IsDir() {
				n += fi.Size()
			}
			return nil
		})
	}
	return n
}

func (s *stack) closeServers() {
	for _, srv := range s.srvs {
		srv.Close()
	}
	s.srvs = nil
}

// close tears the stack down and waits for every goroutine it owns.
func (s *stack) close() {
	for _, m := range s.muxes {
		m.Close()
	}
	if s.fcSrv != nil {
		s.fcSrv.Close()
	}
	for _, c := range []*nwsnet.Client{s.qClient, s.fcClient, s.client} {
		if c != nil {
			c.Close()
		}
	}
	for _, a := range s.agents {
		a.Stop()
		a.Close()
	}
	s.closeServers()
	if s.nsSrv != nil {
		s.nsSrv.Close()
	}
	for _, pm := range s.pms {
		pm.Close()
	}
}

// --- timing wrappers (traced stacks only) ---

// Handler spans carry the key of the operation they serve, which links them
// to the client span whose interval contains them: the host of a store
// envelope's first series, roundKey for fetch envelopes (the forecaster's
// refresh), queryKey(series) for forecasts.
const roundKey = "round"

func queryKey(series string) string { return "q|" + series }

func requestKey(req nwsnet.Request) (string, bool) {
	switch req.Op {
	case nwsnet.OpStore:
		return hostOf(req.Series), true
	case nwsnet.OpFetch:
		return roundKey, true
	case nwsnet.OpForecast:
		return queryKey(req.Series), true
	case nwsnet.OpBatch:
		if len(req.Batch) > 0 {
			return requestKey(req.Batch[0])
		}
	}
	return "", false
}

func (s *stack) wrapHandler(h nwsnet.Handler, name string) nwsnet.Handler {
	if s.tr == nil {
		return h
	}
	return &traceHandler{Handler: h, tr: s.tr, name: name}
}

func (s *stack) wrapStore(b nwsnet.StoreBackend, name string) nwsnet.StoreBackend {
	if s.tr == nil {
		return b
	}
	return &traceStore{StoreBackend: b, tr: s.tr, name: name}
}

// traceHandler times Handle calls on the server side.
type traceHandler struct {
	nwsnet.Handler
	tr   *tracer
	name string
}

func (h *traceHandler) Handle(req nwsnet.Request) nwsnet.Response {
	key, ok := requestKey(req)
	if !ok || !h.tr.on.Load() {
		return h.Handler.Handle(req)
	}
	t0 := now()
	resp := h.Handler.Handle(req)
	h.tr.add(h.name, key, t0, now())
	return resp
}

// traceSubHandler forwards the SubscriptionHandler interface the server
// type-asserts on its handler, so subscriptions reach the forecaster.
type traceSubHandler struct {
	traceHandler
	sub nwsnet.SubscriptionHandler
}

func (h *traceSubHandler) Subscribe(req nwsnet.Request, id uint64, sink nwsnet.PushSink) nwsnet.Response {
	return h.sub.Subscribe(req, id, sink)
}

func (h *traceSubHandler) Unsubscribe(req nwsnet.Request, sink nwsnet.PushSink) nwsnet.Response {
	return h.sub.Unsubscribe(req, sink)
}

func (h *traceSubHandler) DropSink(sink nwsnet.PushSink) { h.sub.DropSink(sink) }

// traceStore times the sensors' store backend (ReplicaGroup or
// ClusterClient).
type traceStore struct {
	nwsnet.StoreBackend
	tr   *tracer
	name string
}

func (b *traceStore) StoreBatch(ctx context.Context, stores []nwsnet.BatchStore) ([]error, error) {
	if len(stores) == 0 || !b.tr.on.Load() {
		return b.StoreBackend.StoreBatch(ctx, stores)
	}
	t0 := now()
	errs, err := b.StoreBackend.StoreBatch(ctx, stores)
	b.tr.add(b.name, hostOf(stores[0].Series), t0, now())
	return errs, err
}

// traceTransport times each per-replica call a ReplicaGroup makes.
type traceTransport struct {
	nwsnet.Transport
	tr *tracer
}

func (t *traceTransport) StoreBatchCtx(ctx context.Context, addr string, stores []nwsnet.BatchStore) ([]error, error) {
	if len(stores) == 0 || !t.tr.on.Load() {
		return t.Transport.StoreBatchCtx(ctx, addr, stores)
	}
	t0 := now()
	errs, err := t.Transport.StoreBatchCtx(ctx, addr, stores)
	t.tr.add("replica.call", hostOf(stores[0].Series), t0, now())
	return errs, err
}

// traceFetch times the forecaster's batch fetches (its refresh pulls).
type traceFetch struct {
	nwsnet.FetchBackend
	tr *tracer
}

func (f *traceFetch) FetchBatch(ctx context.Context, fetches []nwsnet.BatchFetch) ([]nwsnet.FetchResult, error) {
	if !f.tr.on.Load() {
		return f.FetchBackend.FetchBatch(ctx, fetches)
	}
	t0 := now()
	res, err := f.FetchBackend.FetchBatch(ctx, fetches)
	f.tr.add("forecaster.fetch", roundKey, t0, now())
	return res, err
}
