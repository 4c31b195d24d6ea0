package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"causeway/internal/probe"
	"causeway/internal/telemetry"
	"causeway/internal/topology"
	"causeway/internal/transport"
)

// Constants of the two record-stream workloads.
const (
	// sendWindow is the closed loop's window: the saturating generator
	// appends while a shipper holds at most this many records and waits
	// otherwise, so the default 8192-cell ring never overflows and nothing
	// is dropped by design.
	sendWindow = 4096
	// saturatePasses is the fixed work of one ingest-saturate epoch: whole
	// passes of the stream, about three seconds' worth on the calibration
	// host (see runEpochs for why the work is fixed and not the time).
	saturatePasses = 3
	// skewRate is the open loop's fixed arrival rate in records/s and
	// skewLag how late the lagged process's records arrive. README.md
	// records how the rate was chosen.
	skewRate = 25000
	skewLag  = 2 * time.Second
	// lagInvalid is the generator lateness (p99) above which an open-loop
	// run is reported as invalid rather than as a result: records that
	// were due together and arrive half a quiescence window apart are a
	// different workload, one in which the assembler judges chains whole
	// before they are. Lateness short of that is queueing the open loop is
	// meant to count (latency runs from the due time). On two cores the
	// sleeping generator waits for a P whenever a tick's parse burst and a
	// GC mark worker hold both — the runtime only preempts them after
	// 10 ms — so p99 sits near 15-20 ms, and at 50 ms while neighbours
	// keep the host busy; the median stays under 1 ms.
	lagInvalid = quiescence / 2
)

// ingestEnv is a generated stream, and a collector and the shippers that
// will carry the stream to it.
type ingestEnv struct {
	p    params
	skew bool
	tr   *tracer
	st   *stream
	// Started by set-up, and again before every further epoch.
	col      *collector
	shippers []*telemetry.ShipperSink
	rtt      rttLog // every ship frame's round trip
}

func setupIngest(p params, tr *tracer, skew bool) (env, error) {
	st, err := generateStream(p.seed, p.scale)
	if err != nil {
		return nil, err
	}
	e := &ingestEnv{p: p, skew: skew, tr: tr, st: st}
	if err := e.start(); err != nil {
		return nil, err
	}
	return e, nil
}

// start brings up an empty collector and connects the shippers to it.
func (e *ingestEnv) start() error {
	dir, err := os.MkdirTemp(e.p.tmp, "ingest-")
	if err != nil {
		return err
	}
	col, err := startCollector(dir, e.tr)
	if err != nil {
		return err
	}
	e.col, e.shippers, e.rtt.ns = col, nil, nil
	st, tr := e.st, e.tr
	for i := 0; i < shipperCount; i++ {
		cfg := telemetry.ShipperConfig{
			Addr: col.srv.Addr(),
			Process: topology.Process{
				ID:        fmt.Sprintf("shipper%d", i),
				Processor: topology.Processor{ID: fmt.Sprintf("shipper%d-cpu", i), Type: "x86"},
			},
		}
		acc := &connAcc{}
		if tr != nil {
			for j, proc := range st.procs {
				if j%shipperCount == i {
					tr.register(acc, proc)
				}
			}
		}
		cfg.Dial = func(addr string) (transport.Client, error) {
			c, err := transport.DialTCP(addr)
			if err != nil {
				return nil, err
			}
			return &shipClient{Client: c, rtt: &e.rtt, tr: tr, acc: acc}, nil
		}
		sh, err := telemetry.NewShipper(cfg)
		if err != nil {
			e.close()
			return err
		}
		e.shippers = append(e.shippers, sh)
	}
	// The handshake is part of set-up, not of the first measured batch.
	deadline := time.Now().Add(5 * time.Second)
	for _, sh := range e.shippers {
		for !sh.Stats().Connected {
			if time.Now().After(deadline) {
				e.close()
				return fmt.Errorf("shipper did not connect: %s", sh.Stats().LastError)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

func (e *ingestEnv) shipperStats() []telemetry.ShipperStats {
	out := make([]telemetry.ShipperStats, len(e.shippers))
	for i, sh := range e.shippers {
		out[i] = sh.Stats()
	}
	return out
}

func (e *ingestEnv) close() {
	for _, sh := range e.shippers {
		sh.Close()
	}
	e.col.close()
}

// shipperTotals sums shipper counters and fills the telemetry.* metrics
// every shipping workload reports.
func shipperTotals(m *measurement, stats ...telemetry.ShipperStats) (total telemetry.ShipperStats) {
	for _, s := range stats {
		total.Appended += s.Appended
		total.Dropped += s.Dropped
		total.Shipped += s.Shipped
		total.Batches += s.Batches
		total.Bytes += s.Bytes
	}
	m.layer["telemetry.batch_records"] = ratio(float64(total.Shipped), float64(total.Batches))
	m.layer["telemetry.wire_bytes_per_record"] = ratio(float64(total.Bytes), float64(total.Shipped))
	m.layer["telemetry.shipper_dropped"] = float64(total.Dropped)
	return total
}

// genStats is what a load generator reports about itself.
type genStats struct {
	sent        int
	passes      int           // closed loop: whole passes of the stream sent
	lagUS       []float64     // open loop: how late each record was appended
	slept       time.Duration // time the generator spent waiting
	appendNS    []float64     // 1-in-64 sampled Append cost (traced run)
	bufferedMax int
}

// append hands one record to its shipper; in the traced window one Append
// in 64 is timed.
func (e *ingestEnv) append(g *genStats, sh *telemetry.ShipperSink, r probe.Record) {
	if e.tr != nil && g.sent%64 == 0 {
		t := time.Now()
		sh.Append(r)
		g.appendNS = append(g.appendNS, float64(time.Since(t)))
	} else {
		sh.Append(r)
	}
	g.sent++
}

// saturate replays the stream saturatePasses times, as fast as the window
// lets it. A pass is never cut short: every chain sent is sent whole.
func (e *ingestEnv) saturate() genStats {
	var g genStats
	for g.passes < saturatePasses {
		for i := range e.st.recs {
			sh := e.shippers[e.st.pin[i]]
			if i%32 == 0 {
				// Checked every 32 records, so a shipper holds at most
				// sendWindow+32. Waiting sleeps rather than yields: a
				// yielding generator spins one of the two cores the
				// collector needs.
				for {
					b := sh.Stats().Buffered
					if b > g.bufferedMax {
						g.bufferedMax = b
					}
					if b <= sendWindow {
						break
					}
					t := time.Now()
					time.Sleep(200 * time.Microsecond)
					g.slept += time.Since(t)
				}
			}
			r := e.st.recs[i]
			rekey(&r, g.passes)
			e.append(&g, sh, r)
			if e.st.last[i] {
				e.col.fresh.lastSent(r.Chain, time.Now())
			}
		}
		g.passes++
	}
	return g
}

// openLoop appends records on a fixed schedule whatever the collector
// does. Every record has a due time; freshness counts from it, and the
// generator reports how late it ran.
//
// Pacing: at 25 000 records/s a record is due every 40 µs, far below what
// time.Sleep can hit, so the generator sleeps at least a millisecond
// whenever nothing is due and then appends everything that has come due.
// Sleeping to just short of the due time and yielding the rest — the usual
// remedy for Sleep's ~1 ms overshoot — degenerates into a spin at this
// rate, and a spinning generator takes one of two cores and shows up as
// 40 µs of CPU per record in a metric whose subject costs less than that.
// Arriving up to a millisecond late in small bursts is also what a real
// shipper's producers do; gen.lag_* keeps the lateness honest.
func (e *ingestEnv) openLoop(sched []delivery, start time.Time) genStats {
	g := genStats{lagUS: make([]float64, 0, len(sched))}
	for k, d := range sched {
		for {
			wait := d.due - time.Since(start)
			if wait <= 0 {
				break
			}
			if wait < time.Millisecond {
				wait = time.Millisecond
			}
			time.Sleep(wait)
			g.slept += wait
		}
		sh := e.shippers[e.st.pin[d.idx]]
		r := e.st.recs[d.idx]
		rekey(&r, int(d.pass))
		e.append(&g, sh, r)
		g.lagUS = append(g.lagUS, float64(time.Since(start)-d.due)/float64(time.Microsecond))
		if r.Kind == probe.KindEvent {
			// The chain's clock starts at the due time of whichever of
			// its records is due last; with one process delayed that is
			// not the last in emission order.
			e.col.fresh.lastSent(r.Chain, start.Add(d.due))
		}
		if k%256 == 0 {
			if b := sh.Stats().Buffered; b > g.bufferedMax {
				g.bufferedMax = b
			}
		}
	}
	return g
}

func (e *ingestEnv) measure(seconds float64) (*measurement, error) {
	if e.skew {
		// One window: it has to be several lags long, and at an eighth of
		// the saturating rate the heap grows an eighth as fast.
		return e.window(seconds), nil
	}
	return runEpochs(seconds,
		func() (*measurement, error) { return e.window(0), nil },
		func() error { e.close(); return e.start() })
}

// window measures one open-loop window of the given length, or one closed-
// loop epoch of saturatePasses.
func (e *ingestEnv) window(seconds float64) *measurement {
	m := &measurement{layer: make(map[string]float64)}
	var sched []delivery
	pass0 := e.st.recs
	if e.skew {
		// The lagged records stretch the run by skewLag; take it out of
		// the offered stream so the window still lasts about `seconds`.
		offered := seconds - skewLag.Seconds()
		if offered < seconds/2 {
			offered = seconds / 2
		}
		sched = e.st.schedule(int(offered*skewRate), skewRate, skewLag)
		pass0 = e.st.passZero(sched)
	}

	runtime.GC() // start every window from a collected heap
	var mem0 memCounters
	if e.tr != nil {
		mem0 = readMem()
	}
	cpu0 := cpuTime()
	start := time.Now()
	var g genStats
	if e.skew {
		g = e.openLoop(sched, start)
	} else {
		g = e.saturate()
	}
	genDone := time.Since(start)
	// Rings only drop on Append, so the count is final once the generator is.
	dropped := shipperTotals(m, e.shipperStats()...).Dropped
	e.col.settle(m, uint64(g.sent), dropped)
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	if e.tr != nil {
		e.tr.drainAll()
		runtimeLayers(m, mem0, float64(g.sent), e.col.heapPeak)
	}

	// The quiescence window is a configured wait, not work: the last
	// chains sit idle through it before they may be judged, so it comes
	// out of the wall time as it comes out of freshness. In the open loop
	// the lag is part of the offered schedule and comes out likewise.
	m.window = wall
	work := wall - quiescence
	if e.skew {
		work -= skewLag
	}
	persisted := float64(e.col.asm.Ledger().Persisted)
	m.recordsPerS = ratio(persisted, work.Seconds())
	m.cpuUSPerRecord = ratio(float64(cpu)/float64(time.Microsecond), persisted)
	m.attempted = int64(g.sent)
	// What the workload's user waits for. The saturating producer waits
	// for the collector to take and acknowledge a ship frame; the operator
	// of the open loop waits for a finished chain to become queryable. (At
	// saturation freshness is the depth of two full queues and swings by a
	// fifth from run to run; it stays a per-layer metric there.)
	if e.skew {
		fresh, _ := e.col.fresh.samples()
		m.latencyMS = median(fresh)
	} else {
		e.rtt.mu.Lock()
		m.latencyMS = median(nsToFloat(e.rtt.ns, time.Millisecond))
		e.rtt.mu.Unlock()
	}

	shipperTotals(m, e.shipperStats()...)
	checkEquivalence(m, e.col.store, pass0)

	m.layer["telemetry.shipper_append_ns"] = median(g.appendNS)
	m.layer["telemetry.buffered_max"] = float64(g.bufferedMax)
	e.col.layers(m)
	if e.skew {
		m.layer["gen.lag_p50_us"] = median(g.lagUS)
		m.layer["gen.lag_p99_us"] = quantile(g.lagUS, 0.99)
		m.layer["gen.lag_max_us"] = maxOf(g.lagUS)
		if p99 := quantile(g.lagUS, 0.99); p99 > float64(lagInvalid/time.Microsecond) {
			m.fail("invalid run: the open-loop generator ran %.0f us late at p99 (limit %v)", p99, lagInvalid)
		}
	}
	// Collector-side CPU, for the traced-share gauge: what the process
	// used minus what the generator used while it was not waiting.
	m.collectorCPU = cpu - (genDone - g.slept)
	return m
}
