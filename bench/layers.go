package main

import "time"

// layerFromSpans derives the per-layer metrics that come from spans: time
// per record, time per batch, share of the window. The window's own
// counters (ticks, ledgers, shipper stats) were filled in by the workload.
func layerFromSpans(m *measurement, spans []span) {
	sums := sumSpans(spans)
	window := float64(m.window)
	busy := func(name string) float64 { return float64(sums[name].busyNS) }
	self := func(name string) float64 { return float64(sums[name].selfNS) }
	durations := func(name string, per time.Duration) []float64 {
		var out []float64
		for _, s := range spans {
			if s.Name == name {
				out = append(out, float64(s.BusyNS)/float64(per))
			}
		}
		return out
	}

	med := func(name string, per time.Duration) float64 { return orZero(median(durations(name, per))) }

	ship := sums[spanShipCall]
	m.layer["telemetry.ship_call_p50_us"] = med(spanShipCall, time.Microsecond)
	m.layer["telemetry.ship_call_p99_us"] = orZero(quantile(durations(spanShipCall, time.Microsecond), 0.99))
	m.layer["telemetry.server_self_us_per_batch"] = ratio(self(spanShipCall)/1e3, float64(ship.spans))
	m.layer["telemetry.server_busy_share"] = ratio(busy(spanShipCall), window*shipperCount)

	m.layer["online.append_ns_per_record"] = ratio(busy(spanOnlineAppend), float64(sums[spanOnlineAppend].records))
	m.layer["online.busy_share"] = ratio(busy(spanOnlineAppend), window)
	m.layer["streamrecon.append_ns_per_record"] = ratio(busy(spanAsmAppend), float64(sums[spanAsmAppend].records))
	m.layer["streamrecon.tick_self_share"] = ratio(self(spanTick), window)
	m.layer["streamrecon.evict_us_per_chain"] = ratio(self(spanTick)/1e3, float64(sums[spanTick].records))

	ins := sums[spanInsert]
	m.layer["tracestore.insert_ns_per_record"] = ratio(busy(spanInsert), float64(ins.records))
	m.layer["tracestore.insert_share"] = ratio(busy(spanInsert), window)
	m.layer["tracestore.insert_calls"] = float64(ins.spans)

	m.layer["tracestore.open_s"] = med(spanOpen, time.Second)
	m.layer["analysis.reconstruct_par_s"] = med(spanReconstruct, time.Second)
	m.layer["analysis.latency_cpu_ms"] = med(spanLatencyCPU, time.Millisecond)
	m.layer["analysis.iface_stats_ms"] = med(spanIfaceStats, time.Millisecond)
	m.layer["render.dscg_text_us"] = med(spanRender, time.Microsecond)

	// How much of the collector side's CPU the spans account for.
	traced := self(spanShipCall) + self(spanOnlineAppend) + self(spanAsmAppend) +
		self(spanTick) + self(spanInsert) + self(spanFlush)
	m.layer["collector.traced_share"] = ratio(traced, float64(m.collectorCPU))
}
