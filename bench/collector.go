package main

import (
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"causeway/internal/metrics"
	"causeway/internal/online"
	"causeway/internal/probe"
	"causeway/internal/streamrecon"
	"causeway/internal/telemetry"
	"causeway/internal/tracestore"
	"causeway/internal/uuid"
)

// The collector side runs with collectd's defaults; the tick period is the
// one constant the benchmark has to choose, because the assembler owns no
// goroutine and collectd ticks on its -report period.
const (
	quiescence    = 500 * time.Millisecond
	staleAfter    = 30 * time.Second
	slowThreshold = 100 * time.Millisecond
	tickPeriod    = 50 * time.Millisecond
)

// collector composes the layers exactly as `collectd -store DIR -stream`
// does: tracestore <- streamrecon.Assembler <- telemetry.Server, with an
// online.Monitor (feeding a metrics.Registry) beside the assembler.
type collector struct {
	dir   string
	store *tracestore.Store
	asm   *streamrecon.Assembler
	srv   *telemetry.Server
	tr    *tracer      // nil in the untraced run
	ts    *tracedStore // nil in the untraced run
	fresh *freshness

	stop, done chan struct{}
	// Written by the tick goroutine, read after stopTicking.
	tickNS      []int64
	openMax     int
	bufferedMax uint64
	heapPeak    uint64
	flushDur    time.Duration // set by settle
}

// startCollector opens a fresh store under dir and starts serving on an
// ephemeral loopback port. tr, when non-nil, wraps the sinks and the store
// with the tracing boundary wrappers.
func startCollector(dir string, tr *tracer) (*collector, error) {
	store, err := tracestore.Open(dir, tracestore.Options{})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	c := &collector{
		dir:   dir,
		store: store,
		tr:    tr,
		fresh: newFreshness(),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	var asmStore streamrecon.RecordStore = store
	if tr != nil {
		c.ts = &tracedStore{inner: store, tr: tr}
		asmStore = c.ts
	}
	c.asm, err = streamrecon.New(streamrecon.Config{
		Store:         asmStore,
		Quiescence:    quiescence,
		StaleAfter:    staleAfter,
		SlowThreshold: slowThreshold,
		OnComplete:    c.fresh.complete,
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	mon := online.NewMonitor(online.Config{
		Metrics:       metrics.NewRegistry(),
		SlowThreshold: slowThreshold,
	})
	sinks := []probe.Sink{mon, c.asm}
	if tr != nil {
		sinks = []probe.Sink{
			&tracedSink{inner: mon, which: sinkOnline, tr: tr},
			&tracedSink{inner: c.asm, which: sinkAsm, tr: tr},
		}
	}
	c.srv, err = telemetry.Listen("127.0.0.1:0", telemetry.ServerConfig{Sinks: sinks})
	if err != nil {
		store.Close()
		return nil, err
	}
	go c.tickLoop()
	return c, nil
}

func (c *collector) tickLoop() {
	defer close(c.done)
	ticker := time.NewTicker(tickPeriod)
	defer ticker.Stop()
	for n := 0; ; n++ {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		c.tick()
		if open := c.asm.OpenChains(); open > c.openMax {
			c.openMax = open
		}
		if b := c.asm.Ledger().Buffered; b > c.bufferedMax {
			c.bufferedMax = b
		}
		if c.tr != nil && n%2 == 0 {
			if h := heapBytes(); h > c.heapPeak {
				c.heapPeak = h
			}
		}
	}
}

func (c *collector) tick() {
	if c.tr == nil {
		start := time.Now()
		c.asm.Tick()
		c.tickNS = append(c.tickNS, int64(time.Since(start)))
		return
	}
	start := c.tr.now()
	id := c.tr.reserve(spanTick, start)
	c.ts.tick = id
	n := c.asm.Tick()
	end := c.tr.now()
	c.tr.close(id, end, n)
	c.tickNS = append(c.tickNS, end-start)
}

// settle ends a streaming window: it waits until the assembler has handed
// all sent records to the store (or 30 s pass), stops the ticks, flushes the
// store, and holds the conservation ledgers against what was sent. ringDrops
// is what the shippers counted as dropped.
func (c *collector) settle(m *measurement, sent, ringDrops uint64) {
	deadline := time.Now().Add(30 * time.Second)
	for c.asm.Ledger().Persisted < sent && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	c.stopTicking()

	start := time.Now()
	var ts int64
	if c.tr != nil {
		ts = c.tr.now()
	}
	err := c.store.Flush()
	if c.tr != nil {
		c.tr.add(span{Name: spanFlush, StartNS: ts, EndNS: c.tr.now()})
	}
	c.flushDur = time.Since(start)
	if err != nil {
		m.fail("store flush: %v", err)
	}

	led := c.asm.Ledger()
	if led.Persisted < sent {
		m.failed += int64(sent - led.Persisted)
	}
	checkStreaming(m, c, sent, ringDrops)
}

// stopTicking ends the tick goroutine and waits for it.
func (c *collector) stopTicking() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	<-c.done
}

// layers fills the per-layer values the collector itself counts.
func (c *collector) layers(m *measurement) {
	ticks := nsToFloat(c.tickNS, time.Millisecond)
	fresh, early := c.fresh.samples()
	m.layer["freshness_p50_ms"] = median(fresh)
	m.layer["freshness_p99_ms"] = quantile(fresh, 0.99)
	m.layer["streamrecon.tick_p50_ms"] = median(ticks)
	m.layer["streamrecon.tick_max_ms"] = maxOf(ticks)
	m.layer["streamrecon.open_chains_max"] = float64(c.openMax)
	m.layer["streamrecon.buffered_max"] = float64(c.bufferedMax)
	m.layer["streamrecon.shed"] = float64(c.asm.Ledger().Shed)
	m.layer["streamrecon.completions"] = float64(c.asm.Completions())
	m.layer["streamrecon.early_completions"] = float64(early)
	m.layer["tracestore.flush_ms"] = float64(c.flushDur) / 1e6
	m.layer["tracestore.bytes_per_record"] = ratio(float64(dirSize(c.dir)), float64(c.store.Len()))
}

// close tears the collector down and removes its store.
func (c *collector) close() {
	c.stopTicking()
	c.srv.Close()
	c.store.Close()
	os.RemoveAll(c.dir)
}

// freshness measures, per chain, the time from the append of the chain's
// last record to the OnComplete that follows its Store.Insert, minus the
// quiescence window — probe fired → durable and queryable, queueing
// included, the configured wait excluded.
type freshness struct {
	mu   sync.Mutex
	sent map[uuid.UUID]time.Time // chains in flight: when their latest record was appended or due
	ms   map[uuid.UUID]float64   // chains reported complete: the sample, NaN once voided
	// early counts chains the assembler reported complete before their
	// last record was sent: arrival skew made a prefix parse whole (the
	// rest follows as stragglers). Their samples are void.
	early int
}

func newFreshness() *freshness {
	return &freshness{sent: make(map[uuid.UUID]time.Time), ms: make(map[uuid.UUID]float64)}
}

// lastSent notes when a record of chain was appended (or was due); the
// latest such time is where the chain's clock starts. Callers that know
// which record is a chain's last call it once, the others per record.
func (f *freshness) lastSent(chain uuid.UUID, at time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if v, done := f.ms[chain]; done {
		if !math.IsNaN(v) {
			f.ms[chain] = math.NaN()
			f.early++
		}
		return
	}
	if at.After(f.sent[chain]) {
		f.sent[chain] = at
	}
}

func (f *freshness) complete(c streamrecon.Completion) {
	now := time.Now()
	f.mu.Lock()
	if at, ok := f.sent[c.Chain]; ok {
		delete(f.sent, c.Chain)
		f.ms[c.Chain] = float64(now.Sub(at)-quiescence) / float64(time.Millisecond)
	}
	f.mu.Unlock()
}

func (f *freshness) samples() (ms []float64, early int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, v := range f.ms {
		if !math.IsNaN(v) {
			ms = append(ms, v)
		}
	}
	return ms, f.early
}
