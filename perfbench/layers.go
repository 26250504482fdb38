package main

import (
	"runtime"
	"strings"

	"uniint/internal/metrics"
)

// perLayer computes the per-layer metrics of a traced run. tt is the
// traced half and un the untraced half before it; m0/m1 bracket the
// traced half in the program's own registry, mem0/mem1 the untraced
// half in the Go runtime's. Every metric is reported for every workload;
// a layer a workload does not exercise reads 0.
func perLayer(s spec, un, tt *tally, tr *tracer, m0, m1 metrics.Snapshot, mem0, mem1 *runtime.MemStats) map[string]metric {
	counter := func(name string) int64 { return m1.Counters[name] - m0.Counters[name] }
	hist := func(name string, q float64) float64 {
		a, b := m0.Histograms[name], m1.Histograms[name]
		d := metrics.HistogramSnapshot{Bounds: b.Bounds, Counts: make([]uint64, len(b.Counts)), Max: b.Max}
		for i := range b.Counts {
			d.Counts[i] = b.Counts[i]
			if i < len(a.Counts) {
				d.Counts[i] -= a.Counts[i]
			}
			d.Count += d.Counts[i]
		}
		return d.Quantile(q)
	}
	interactions := int64(tt.op(opInteraction).attempted)
	per := func(x int64) float64 { return ratio(x, interactions) }
	var encoded int64
	for name := range m1.Counters {
		if strings.HasPrefix(name, "rfb_encode_") && strings.HasSuffix(name, "_bytes_total") {
			encoded += counter(name)
		}
	}
	hits, misses := counter("rfb_tilecache_hits_total"), counter("rfb_tilecache_misses_total")
	updates := counter("server_updates_sent_total")
	unOps := int64(un.units)
	us := func(v float64) metric { return metric{v, "us"} }
	ms := func(v float64) metric { return metric{v, "ms"} }
	count := func(v float64) metric { return metric{v, "count"} }

	out := map[string]metric{
		// core + device
		"core.input_flush_us":         us(tr.median("core.input_flush")),
		"core.present_us":             us(tr.median("core.present")),
		"core.frames_per_interaction": count(per(tt.frames)),
		// rfb wire
		"rfb.wire_up_us":               us(tr.median("rfb.wire_up")),
		"rfb.wire_down_us":             us(tr.median("rfb.wire_down")),
		"rfb.updates_per_interaction":  count(per(updates)),
		"rfb.up_bytes_per_interaction": {per(tt.up), "B"},
		// rfb encode
		"rfb.encode_us":            us(hist("server_encode_seconds", 0.5) * 1e6),
		"rfb.tile_hit_ratio":       {ratio(hits, hits+misses), "ratio"},
		"rfb.copyrect_per_update":  count(ratio(counter("rfb_copyrect_hits_total"), updates)),
		"rfb.zlibdict_bytes_share": {ratio(counter("rfb_encode_zlibdict_bytes_total"), encoded), "ratio"},
		// fed
		"fed.route_us":             us(tr.median("fed.route")),
		"fed.drain_ms":             ms(tr.median("fed.drain") / 1e3),
		"fed.add_node_ms":          ms(tr.median("fed.add_node") / 1e3),
		"fed.migrations_per_cycle": count(ratio(counter("fed_migrations_total"), int64(tt.op(opCycle).attempted))),
		// hub
		"hub.token_probes_per_route": count(ratio(tr.counter("hub.has_parked"), counter("fed_token_routes_total"))),
		"hub.admit_us":               us(tr.median("hub.admit")),
		// uniserver
		"uniserver.dispatch_us":      us(tr.median("uniserver.dispatch")),
		"uniserver.render_encode_us": us(tr.median("uniserver.render_encode")),
		"uniserver.handshake_us":     us(tr.median("uniserver.handshake")),
		// uniserver detach lot
		"uniserver.detach_us":                us(tr.median("uniserver.detach")),
		"uniserver.export_us":                us(tr.median("uniserver.export")),
		"uniserver.import_us":                us(tr.median("uniserver.import")),
		"uniserver.parked_bytes_per_session": {ratio(m1.Gauges["lot_parked_bytes"], m1.Gauges["session_parked"]), "B"},
		"uniserver.input_dropped":            count(float64(counter("input_dropped_total"))),
		// toolkit + gfx
		"toolkit.px_repainted_per_interaction":    count(per(counter("render_px_repainted_total"))),
		"toolkit.widgets_painted_per_interaction": count(per(counter("render_widgets_painted_total"))),
		// havi + homeapp + appliance
		"havi.control_us": us(tr.median("havi.control")),
		// sched
		"sched.turns_per_interaction": count(per(counter("sched_turns_total"))),
		"sched.queue_lag_us":          us(hist("sched_queue_lag_seconds", 0.5) * 1e6),
		// Go runtime, over the untraced half
		"runtime.alloc_bytes_per_op": {ratio(int64(mem1.TotalAlloc-mem0.TotalAlloc), unOps), "B"},
		"runtime.gc_cycles_per_kop":  count(ratio(int64(mem1.NumGC-mem0.NumGC)*1000, unOps)),
		"runtime.gc_pause_us_per_op": us(ratio(int64(mem1.PauseTotalNs-mem0.PauseTotalNs), unOps) / 1e3),
		// diagnostics, over the untraced half; not gated
		"diag.interact_p99_ms":        ms(un.op(opInteraction).p(0.99)),
		"diag.resume_p99_ms":          ms(un.op(opResume).p(0.99)),
		"diag.migrated_resume_p90_ms": ms(un.op(opMigratedResume).p(0.9)),
		// tracing overhead: traced half minus untraced half
		"trace.overhead_main_p50_ms": ms(tt.op(s.main).p(0.5) - un.op(s.main).p(0.5)),
		"trace.overhead_ops_per_s":   {float64(tt.units)/tt.elapsed.Seconds() - float64(un.units)/un.elapsed.Seconds(), "1/s"},
	}
	return out
}
