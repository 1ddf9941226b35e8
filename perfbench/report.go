package main

import (
	"time"
)

// tailOf returns the q-quantile of sorted latencies, warning when fewer
// than ten samples lie beyond it.
func tailOf(sorted []float64, q float64) float64 {
	if float64(len(sorted))*(1-q) < 10 {
		logf("only %d samples: fewer than ten beyond the %v quantile", len(sorted), q)
	}
	return quantile(sorted, q)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// endToEnd computes the metrics a user of the service sees, from the
// untraced timed phase.
func endToEnd(p *phase, setupS []float64, k *checker, tailQ float64) map[string]metric {
	calls := p.all()
	var lats []time.Duration
	bytes := 0
	for _, c := range calls {
		if c.ok() {
			lats = append(lats, c.lat)
			bytes += c.size
		}
	}
	sorted := sortedMS(lats)
	ok := float64(len(lats))
	att := float64(len(calls))
	return map[string]metric{
		"throughput_rps":   {p.roundRate() * ok / att, "1/s"},
		"p50_ms":           {quantile(sorted, 0.5), "ms"},
		"tail_ms":          {tailOf(sorted, tailQ), "ms"},
		"ok_frac":          {ok / att, "frac"},
		"setup_s":          {median(setupS), "s"},
		"cpu_ms_per_req":   {ms(p.rt1.cpu-p.rt0.cpu) / att, "ms"},
		"alloc_kb_per_req": {(p.rt1.allocB - p.rt0.allocB) / 1024 / att, "KiB"},
		"peak_rss_mb":      {p.peakRSS, "MiB"},
		"cycles_mean":      {ratio(k.round0.cycles, float64(k.round0.n)), "cycles"},
		"resutil_mean":     {ratio(k.round0.resutil, float64(k.round0.n)), "frac"},
		"resp_kb_mean":     {float64(bytes) / 1024 / ok, "KiB"},
	}
}

// roundRate is the request rate of the median round: every connection's
// round length over the median duration of its rounds, summed. Rounds
// have the same composition, so the median ignores a round a transient
// stall of the machine slowed down.
func (p *phase) roundRate() float64 {
	rate := 0.0
	for i, ds := range p.roundDur {
		secs := make([]float64, len(ds))
		for j, d := range ds {
			secs[j] = d.Seconds()
		}
		rate += float64(p.scripts[i].roundLen()) / median(secs)
	}
	return rate
}

// corePasses are the pipeline passes whose self time the traced run
// reports, as named in Result.Trace.
var corePasses = []string{
	"validate", "decompose-swaps", "qco", "adopt-working", "capacity",
	"place", "place-warm", "route", "route-parallel", "finalize-metrics",
}

// perLayer computes the per-layer metrics: span self times from the
// traced replay, /metrics deltas over the replay, runtime figures and
// the client's outcome counts from the timed phase.
func perLayer(p *phase, rp *replay) map[string]metric {
	lt := totals(rp.tracers)
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	mean := func(name string) float64 { return ratio(lt.ms(name), float64(lt.count(name))) }
	meanDur := func(name string) float64 {
		if t := lt[name]; t != nil {
			return ms(t.dur) / float64(t.n)
		}
		return 0
	}
	httpMS := 0.0
	if t := lt["http"]; t != nil {
		httpMS = ms(t.dur)
	}
	requests := float64(lt.count("http"))

	// qasm and fingerprint
	put("qasm.parse_ms", mean("qasm.parse"), "ms")
	put("qasm.parse_share", ratio(lt.ms("qasm.parse"), httpMS), "frac")
	parseBytes := 0.0
	if t := lt["qasm.parse"]; t != nil {
		parseBytes = float64(t.bytes)
	}
	put("qasm.parse_mb_s", ratio(parseBytes/1e6, lt.ms("qasm.parse")/1e3), "MB/s")
	put("qasm.roundtrip_fail", float64(roundtripFailures()), "count")
	put("fingerprint.ms", mean("fingerprint"), "ms")
	put("fingerprint.share", ratio(lt.ms("fingerprint"), httpMS), "frac")

	// service edge: the HTTP span less the replayed layers
	put("service.edge_ms", ratio(lt.ms("http"), requests), "ms")
	put("service.edge_share", ratio(lt.ms("http"), httpMS), "frac")
	var hit [3][]time.Duration
	for _, c := range rp.all() {
		if c.ok() && c.cached && !c.feed {
			hit[c.mode] = append(hit[c.mode], c.lat)
		}
	}
	put("service.json_hit_ms", quantile(sortedMS(hit[modeJSON]), 0.5), "ms")
	put("service.bin_hit_ms", quantile(sortedMS(hit[modeBinary]), 0.5), "ms")
	put("service.stream_hit_ms", quantile(sortedMS(hit[modeStream]), 0.5), "ms")
	put("service.compile_s_mean", ratio(rp.delta("service_compile_seconds_sum"), rp.delta("service_compile_seconds_count")), "s")
	put("service.acct_gap", acctGap(p), "count")

	// cache
	hits, misses := rp.delta("cache_hits_total"), rp.delta("cache_misses_total")
	put("cache.hit_frac", ratio(hits, hits+misses), "frac")
	put("cache.evictions", rp.delta("cache_evictions_total"), "count")
	put("cache.bytes_per_entry", ratio(rp.after["cache_bytes"], rp.after["cache_entries"]), "B")
	put("cache.meta_frac", 1-ratio(rp.after["cache_encoded_bytes"], rp.after["cache_bytes"]), "frac")

	// defect feed and journal
	feeds := rp.delta("service_defect_feeds_total")
	put("defects.feed_ms", meanDur("defects.feed"), "ms")
	put("defects.recompiles_per_feed", ratio(rp.delta("service_defect_recompiles_total"), feeds), "count")
	put("defects.evictions_per_feed", ratio(rp.delta("service_defect_evictions_total"), feeds), "count")
	attempted := float64(len(rp.all()))
	put("journal.fsyncs_per_req", ratio(rp.delta("journal_fsyncs_total"), attempted), "count")
	put("journal.kb_per_req", ratio(rp.delta("journal_bytes_total")/1024, attempted), "KiB")

	// core: the compile span and its pass trace
	put("core.compile_ms", meanDur("core.compile"), "ms")
	for _, pass := range corePasses {
		put("core."+pass+".ms", mean("core."+pass), "ms")
	}
	compiles := float64(lt.count("core.compile") + lt.count("session.recompile"))
	put("core.untraced_ms", ratio(lt.ms("core.compile")+lt.ms("session.recompile"), compiles), "ms")

	// route: counts over the replayed round, which repeat exactly
	searches := rp.delta("route_searches_total")
	braids := rp.delta("route_braids_routed_total")
	put("route.searches", searches, "count")
	put("route.pops_per_search", ratio(rp.delta("route_search_pops_total"), searches), "count")
	put("route.braids", braids, "count")
	put("route.cycles", rp.delta("route_cycles_total"), "count")
	put("route.parallel.conflict_frac", ratio(rp.delta("route_parallel_conflicts_total"), braids), "frac")
	put("route.parallel.retries", rp.delta("route_parallel_retries_total"), "count")

	// session
	var recompiles, warm, replayed, layers float64
	for _, c := range rp.all() {
		if c.ok() && !c.feed && c.parent != "" && !c.cached {
			recompiles++
			layers += float64(c.layers)
			replayed += float64(c.warm)
			if c.warm > 0 {
				warm++
			}
		}
	}
	put("session.recompile_ms", meanDur("session.recompile"), "ms")
	put("session.parent_rebuild_ms", mean("session.parent_rebuild"), "ms")
	put("session.warm_frac", ratio(warm, recompiles), "frac")
	put("session.replayed_frac", ratio(replayed, layers), "frac")
	put("session.cold_base_ms", meanDur("session.cold_base"), "ms")
	put("session.warm_base_ms", meanDur("session.warm_base"), "ms")
	put("session.speedup", ratio(meanDur("session.cold_base"), meanDur("session.warm_base")), "x")
	put("session.cold_fallbacks", rp.delta("service_session_cold_fallbacks_total"), "count")

	// wire and sched: the cache's binary form and the JSON transcode
	var binKB, binN float64
	for _, c := range rp.all() {
		if c.binSize > 0 {
			binKB += float64(c.binSize) / 1024
			binN++
		}
	}
	jsonKB := 0.0
	if t := lt["sched.json_encode"]; t != nil {
		jsonKB = float64(t.bytes) / 1024 / float64(t.n)
	}
	put("wire.encode_ms", mean("wire.encode"), "ms")
	put("wire.decode_ms", mean("wire.decode"), "ms")
	put("wire.bin_kb", ratio(binKB, binN), "KiB")
	put("sched.json_encode_ms", mean("sched.json_encode"), "ms")
	put("sched.json_kb", jsonKB, "KiB")
	put("sched.transcode_share", ratio(lt.ms("wire.decode")+lt.ms("sched.json_encode"), httpMS), "frac")

	// runtime, from the untraced timed phase
	att := float64(len(p.all()))
	put("gc.cycles_per_req", ratio(p.rt1.gcCycles-p.rt0.gcCycles, att), "count")
	put("gc.cpu_frac", ratio(p.rt1.gcCPU-p.rt0.gcCPU, p.rt1.totalCPU-p.rt0.totalCPU), "frac")
	put("trace.overhead_frac", traceOverhead(p, rp.phase), "frac")
	put("fail_frac", ratio(float64(p.failed()), att), "frac")
	return m
}

// acctGap cross-checks the client's count of outcomes against the
// server's request counters over the timed phase: requests attempted
// against service/requests, successes against requests-ok, failures
// against requests-failed plus requests-canceled. Zero when every
// request is counted exactly once.
func acctGap(p *phase) float64 {
	att, failed := float64(len(p.all())), float64(p.failed())
	req := p.delta("service_requests_total")
	ok := p.delta("service_requests_ok_total")
	bad := p.delta("service_requests_failed_total") + p.delta("service_requests_canceled_total")
	gap := abs(att-req) + abs(att-failed-ok) + abs(failed-bad)
	if gap != 0 {
		logf("request accounting: client %v attempted, %v failed; server requests %v, ok %v, failed+canceled %v", att, failed, req, ok, bad)
	}
	return gap
}

// traceOverhead compares the HTTP time of the traced replay with the
// untraced timed phase over the same requests: the first round.
func traceOverhead(p, traced *phase) float64 {
	sum := func(ph *phase) float64 {
		t := 0.0
		for _, c := range ph.all() {
			if c.round == 0 {
				t += ms(c.lat)
			}
		}
		return t
	}
	return ratio(sum(traced), sum(p)) - 1
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
