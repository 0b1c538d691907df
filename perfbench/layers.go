package main

// Per-layer metrics of a traced run, the layer budget and the list every
// traced result reports. A layer a workload does not run reports 0.

// layerMetrics is every per-layer metric with its unit, in report order.
var layerMetrics = [][2]string{
	{"sensord.step_us_p50", "us"}, {"sensord.self_us_p50", "us"}, {"sensord.backlog_points_max", "count"},
	{"replica.store_us_p50", "us"}, {"replica.store_us_p99", "us"}, {"replica.call_us_p50", "us"},
	{"replica.calls_per_store", "ratio"}, {"replica.hints_queued", "count"},
	{"client.retries", "count"}, {"client.conns_max", "count"}, {"client.breaker_transitions", "count"},
	{"wire.overhead_us_p50", "us"}, {"wire.bytes_per_measurement", "B"}, {"server.shed", "count"},
	{"memory.exec_us_p50", "us"}, {"memory.exec_us_p99", "us"}, {"memory.evicted_per_stored", "ratio"}, {"memory.dedup_ratio", "ratio"},
	{"persist.exec_us_p50", "us"}, {"persist.exec_us_p99", "us"}, {"persist.compactions", "count"},
	{"persist.log_bytes_per_point", "B"}, {"persist.replay_points_per_s", "1/s"},
	{"cluster.store_us_p50", "us"}, {"cluster.exec_us_p50", "us"}, {"cluster.redirects", "count"},
	{"forecaster.refresh_ms_p50", "ms"}, {"forecaster.refresh_ms_p99", "ms"}, {"forecaster.fetch_ms_p50", "ms"},
	{"forecaster.refresh_self_ms_p50", "ms"}, {"forecaster.points_per_refresh", "count"}, {"forecaster.query_exec_us_p50", "us"},
	{"forecaster.cache_hit_ratio", "ratio"}, {"forecaster.push_drop_ratio", "ratio"},
	{"mux.push_lag_ms_p50", "ms"}, {"mux.push_lag_ms_p99", "ms"},
	{"engine.updates_per_refresh", "count"},
	{"go.alloc_bytes_per_measurement", "B"}, {"go.gc_pause_ms_total", "ms"}, {"gen.lag_ms_p99", "ms"},
	{"budget.e2e_us", "us"}, {"budget.sum_us", "us"}, {"budget.ratio", "ratio"}, {"trace.overhead_us", "us"},
}

// budgetTolerance is how far the sum of the blocking path's per-layer
// medians may stray from the traced end-to-end median (as a share of it).
// Medians of parts do not add exactly to the median of their sum, and the
// forecast decomposition counts a refresh's push loop once per round.
const budgetTolerance = 0.25

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func p50(xs []float64) float64 { return quantile(xs, 0.5) }
func p99(xs []float64) float64 { return quantile(xs, 0.99) }

// commonLayers fills the metrics every workload's stack produces.
func commonLayers(L map[string]float64, tr *tracer, m *measure, t *tally, measured int) {
	d := func(n string) float64 { return delta(m.c0, m.c1, n) }
	L["sensord.step_us_p50"] = p50(tr.durs("step", false))
	L["sensord.self_us_p50"] = p50(tr.durs("step", true))
	L["sensord.backlog_points_max"] = float64(t.blMax)
	L["client.retries"] = d("nws_client_retries_total")
	L["client.conns_max"] = m.connsMax
	L["client.breaker_transitions"] = d("nws_client_breaker_transitions_total")
	L["wire.bytes_per_measurement"] = ratio(d("nws_wire_bytes_total"), float64(measured))
	L["server.shed"] = d("nws_server_shed_total")
	stored, deduped := d("nws_memory_points_stored_total"), d("nws_memory_points_deduped_total")
	L["memory.evicted_per_stored"] = ratio(d("nws_memory_points_evicted_total"), stored)
	L["memory.dedup_ratio"] = ratio(deduped, stored+deduped)
	L["go.alloc_bytes_per_measurement"] = ratio(float64(m.m1.TotalAlloc-m.m0.TotalAlloc), float64(measured))
	L["go.gc_pause_ms_total"] = float64(m.m1.PauseTotalNs-m.m0.PauseTotalNs) / 1e6
	L["gen.lag_ms_p99"] = t.lagP99
}

// replicatedLayers computes the ingest and durable per-layer metrics. The
// blocking path of a Step is generator lag + sensord self + replica self +
// Σ wire overhead + Σ memory (or persist) execution.
func replicatedLayers(tr *tracer, children [][]int, r *result, m *measure, t *tally, f *fleet, durable bool) map[string]float64 {
	L := make(map[string]float64)
	commonLayers(L, tr, m, t, f.measured())
	d := func(n string) float64 { return delta(m.c0, m.c1, n) }
	L["replica.store_us_p50"] = p50(tr.durs("replica.store", false))
	L["replica.store_us_p99"] = p99(tr.durs("replica.store", false))
	L["replica.call_us_p50"] = p50(tr.durs("replica.call", false))
	L["replica.calls_per_store"] = ratio(float64(tr.count("replica.call")), float64(tr.count("replica.store")))
	L["replica.hints_queued"] = d("nws_hints_queued_total")
	L["wire.overhead_us_p50"] = p50(tr.durs("replica.call", true))
	exec := "memory"
	if durable {
		exec = "persist"
		L["persist.compactions"] = d("nws_memory_log_compactions_total")
	}
	L[exec+".exec_us_p50"] = p50(tr.durs(exec+".exec", false))
	L[exec+".exec_us_p99"] = p99(tr.durs(exec+".exec", false))
	wire, execSum := tr.perStore(children, "replica.store")
	parts := []float64{
		t.lagP50 * 1e3,
		L["sensord.self_us_p50"],
		p50(tr.durs("replica.store", true)),
		p50(wire),
		p50(execSum),
	}
	budget(L, r, parts)
	return L
}

// forecastLayers computes the forecast per-layer metrics. A round's
// freshness path is its store burst (due → refresh start) + the refresh's
// fetch + the refresh's own work + push delivery after the refresh returns
// (negative for pushes written before it returned).
func forecastLayers(tr *tracer, r *result, m *measure, t *tally, f *fleet, ps pushStats, hits, misses uint64, nRounds int) map[string]float64 {
	L := make(map[string]float64)
	commonLayers(L, tr, m, t, f.measured())
	d := func(n string) float64 { return delta(m.c0, m.c1, n) }
	L["wire.overhead_us_p50"] = p50(tr.durs("query", true))
	L["memory.exec_us_p50"] = p50(tr.durs("memory.exec", false))
	L["memory.exec_us_p99"] = p99(tr.durs("memory.exec", false))
	L["cluster.store_us_p50"] = p50(tr.durs("cluster.store", false))
	L["cluster.exec_us_p50"] = p50(tr.durs("cluster.exec", false))
	L["cluster.redirects"] = d("nws_cluster_redirects_total")
	L["forecaster.refresh_ms_p50"] = p50(tr.durs("forecaster.refresh", false)) / 1e3
	L["forecaster.refresh_ms_p99"] = p99(tr.durs("forecaster.refresh", false)) / 1e3
	L["forecaster.fetch_ms_p50"] = p50(tr.durs("forecaster.fetch", false)) / 1e3
	L["forecaster.refresh_self_ms_p50"] = p50(tr.durs("forecaster.refresh", true)) / 1e3
	L["forecaster.points_per_refresh"] = ratio(d("nws_forecaster_points_pulled_total"), float64(nRounds))
	L["forecaster.query_exec_us_p50"] = p50(tr.durs("forecaster.exec", false))
	L["forecaster.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	L["forecaster.push_drop_ratio"] = ratio(d("nws_forecast_pushes_dropped_total"), d("nws_forecast_pushes_total"))
	L["mux.push_lag_ms_p50"] = ps.lagP50
	L["mux.push_lag_ms_p99"] = ps.lagP99
	L["engine.updates_per_refresh"] = ratio(d("nws_forecast_engine_updates_total"), float64(nRounds))
	parts := []float64{
		p50(tr.durs("round.burst", false)),
		p50(tr.durs("forecaster.fetch", false)),
		p50(tr.durs("forecaster.refresh", true)),
		ps.deliveryP50 * 1e3,
	}
	budget(L, r, parts)
	return L
}

// budget records the layer budget: the blocking path's per-layer medians
// against the traced end-to-end median, and whether they agree within
// budgetTolerance.
func budget(L map[string]float64, r *result, parts []float64) {
	sum := 0.0
	for _, p := range parts {
		sum += p
	}
	L["budget.e2e_us"] = r.e2eP50
	L["budget.sum_us"] = sum
	L["budget.ratio"] = ratio(sum, r.e2eP50)
	gap := L["budget.ratio"] - 1
	r.check("budget", gap <= budgetTolerance && gap >= -budgetTolerance,
		"blocking-path layer medians sum to %.1f µs against a traced end-to-end median of %.1f µs (tolerance ±%.0f%%)",
		sum, r.e2eP50, 100*budgetTolerance)
}
