package online

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"causeway/internal/analysis"
	"causeway/internal/ftl"
	"causeway/internal/probe"
	"causeway/internal/topology"
	"causeway/internal/uuid"
	"causeway/internal/vclock"
)

// liveHarness drives real probes straight into the online monitor.
type liveHarness struct {
	p     *probe.Probes
	clock *vclock.Virtual
}

func newLiveHarness(t *testing.T, sink probe.Sink, aspects probe.Aspect) *liveHarness {
	t.Helper()
	clock := vclock.NewVirtual()
	p, err := probe.New(probe.Config{
		Process: topology.Process{ID: "p1", Processor: topology.Processor{ID: "c", Type: "x86"}},
		Aspects: aspects,
		Clock:   clock,
		Sink:    sink,
		Chains:  &uuid.SequentialGenerator{Seed: 77},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &liveHarness{p: p, clock: clock}
}

func (h *liveHarness) callSync(name string, body func()) {
	op := probe.OpID{Interface: "I", Operation: name, Object: "o"}
	ctx := h.p.StubStart(op, false)
	reply := make(chan ftl.FTL, 1)
	wire := ctx.Wire
	go func() {
		sctx := h.p.SkelStart(op, wire, false)
		if body != nil {
			body()
		}
		reply <- h.p.SkelEnd(sctx)
	}()
	h.p.StubEnd(ctx, <-reply)
}

func (h *liveHarness) callOneway(name string) <-chan struct{} {
	op := probe.OpID{Interface: "I", Operation: name, Object: "o"}
	ctx := h.p.StubStart(op, true)
	done := make(chan struct{})
	wire := ctx.Wire
	go func() {
		defer close(done)
		sctx := h.p.SkelStart(op, wire, true)
		h.p.SkelEnd(sctx)
	}()
	h.p.StubEnd(ctx, ftl.FTL{})
	return done
}

func TestOnlineEmitsCompletedRoots(t *testing.T) {
	var mu sync.Mutex
	var roots []RootEvent
	m := NewMonitor(Config{OnRoot: func(ev RootEvent) {
		mu.Lock()
		defer mu.Unlock()
		roots = append(roots, ev)
	}})
	h := newLiveHarness(t, m, 0)
	h.callSync("F", func() { h.callSync("G", nil) })
	h.p.Tunnel().Clear()
	h.callSync("H", nil)
	h.p.Tunnel().Clear()

	mu.Lock()
	defer mu.Unlock()
	if len(roots) != 2 {
		t.Fatalf("got %d root events, want 2", len(roots))
	}
	if roots[0].Root.Op.Operation != "F" || len(roots[0].Root.Children) != 1 {
		t.Fatalf("first root = %s with %d children", roots[0].Root.Op.Operation, len(roots[0].Root.Children))
	}
	if roots[1].Root.Op.Operation != "H" {
		t.Fatalf("second root = %s", roots[1].Root.Op.Operation)
	}
	if m.OpenChains() != 0 {
		t.Fatalf("OpenChains = %d after quiesce", m.OpenChains())
	}
}

func TestOnlineSiblingRootsEmitSeparately(t *testing.T) {
	count := 0
	m := NewMonitor(Config{OnRoot: func(RootEvent) { count++ }})
	h := newLiveHarness(t, m, 0)
	// Two siblings on ONE chain: two separate root completions.
	h.callSync("A", nil)
	h.callSync("B", nil)
	h.p.Tunnel().Clear()
	if count != 2 {
		t.Fatalf("sibling roots emitted %d events, want 2", count)
	}
}

func TestOnlineOutOfOrderArrival(t *testing.T) {
	// Capture a run's records, shuffle them, feed the monitor: seq-order
	// application must still produce the same completed roots.
	mem := &probe.MemorySink{}
	h := newLiveHarness(t, mem, 0)
	h.callSync("F", func() {
		h.callSync("G", func() { h.callSync("H", nil) })
	})
	h.p.Tunnel().Clear()

	recs := mem.Snapshot()
	r := rand.New(rand.NewSource(99))
	r.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })

	var got *analysis.Node
	anomalies := 0
	m := NewMonitor(Config{
		OnRoot:    func(ev RootEvent) { got = ev.Root },
		OnAnomaly: func(analysis.Anomaly) { anomalies++ },
	})
	for _, rec := range recs {
		m.Append(rec)
	}
	if anomalies != 0 {
		t.Fatalf("%d anomalies on shuffled but complete stream", anomalies)
	}
	if got == nil || got.Op.Operation != "F" || got.Count() != 3 {
		t.Fatalf("root = %+v", got)
	}
}

func TestOnlineOnewayLinkResolution(t *testing.T) {
	var events []RootEvent
	m := NewMonitor(Config{OnRoot: func(ev RootEvent) { events = append(events, ev) }})
	h := newLiveHarness(t, m, 0)
	done := h.callOneway("N")
	<-done
	h.p.Tunnel().Clear()
	// Give the skeleton goroutine's appends a moment if scheduled late.
	deadline := time.Now().Add(2 * time.Second)
	for len(events) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2 (stub side + callee side)", len(events))
	}
	var calleeSide *RootEvent
	for i := range events {
		if events[i].Root.StubStart == nil {
			calleeSide = &events[i]
		}
	}
	if calleeSide == nil {
		t.Fatal("callee-side root not emitted")
	}
	if !calleeSide.HasParent {
		t.Fatal("callee-side root not linked to parent chain")
	}
}

func TestOnlineSlowCallback(t *testing.T) {
	slow := 0
	m := NewMonitor(Config{
		OnSlow:        func(RootEvent) { slow++ },
		SlowThreshold: 100 * time.Microsecond,
	})
	h := newLiveHarness(t, m, probe.AspectLatency)
	h.callSync("fast", nil)
	h.p.Tunnel().Clear()
	if slow != 0 {
		t.Fatalf("fast call flagged slow")
	}
	h.callSync("slow", func() { h.clock.Advance(5 * time.Millisecond) })
	h.p.Tunnel().Clear()
	if slow != 1 {
		t.Fatalf("slow calls flagged = %d, want 1", slow)
	}
}

func TestOnlineAnomalyAndRecovery(t *testing.T) {
	anomalies := 0
	roots := 0
	m := NewMonitor(Config{
		OnRoot:    func(RootEvent) { roots++ },
		OnAnomaly: func(analysis.Anomaly) { anomalies++ },
	})
	chain := uuid.UUID{0: 1}
	op := func(n string) probe.OpID { return probe.OpID{Operation: n} }
	mk := func(seq uint64, ev ftl.Event, name string) probe.Record {
		return probe.Record{Kind: probe.KindEvent, Chain: chain, Seq: seq, Event: ev, Op: op(name)}
	}
	// Corrupt: skel_end for an op that never started; then a clean call.
	m.Append(mk(1, ftl.SkelEnd, "X"))
	m.Append(mk(2, ftl.StubStart, "F"))
	m.Append(mk(3, ftl.SkelStart, "F"))
	m.Append(mk(4, ftl.SkelEnd, "F"))
	m.Append(mk(5, ftl.StubEnd, "F"))
	if anomalies == 0 {
		t.Fatal("corruption not flagged")
	}
	if roots != 1 {
		t.Fatalf("clean call after corruption: %d roots, want 1", roots)
	}
}

func TestOnlineFlushReportsOpenChains(t *testing.T) {
	anomalies := 0
	m := NewMonitor(Config{OnAnomaly: func(analysis.Anomaly) { anomalies++ }})
	chain := uuid.UUID{0: 2}
	m.Append(probe.Record{Kind: probe.KindEvent, Chain: chain, Seq: 1,
		Event: ftl.StubStart, Op: probe.OpID{Operation: "hung"}})
	if m.OpenChains() != 1 {
		t.Fatalf("OpenChains = %d", m.OpenChains())
	}
	m.Flush()
	if anomalies != 1 {
		t.Fatalf("flush reported %d anomalies, want 1", anomalies)
	}
	if m.OpenChains() != 0 {
		t.Fatal("flush did not clear state")
	}
}

func TestOnlineConcurrentChains(t *testing.T) {
	var mu sync.Mutex
	roots := 0
	m := NewMonitor(Config{OnRoot: func(RootEvent) {
		mu.Lock()
		roots++
		mu.Unlock()
	}})
	h := newLiveHarness(t, m, 0)
	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.callSync("F", func() { h.callSync("G", nil) })
			h.p.Tunnel().Clear()
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if roots != clients {
		t.Fatalf("roots = %d, want %d", roots, clients)
	}
}

// A root handed to OnRoot and not kept is garbage the moment the callback
// returns — the monitor's per-chain state, which lives on for the chain's
// later siblings, must not pin the finished tree (a popped stack slot left
// uncleared would, through the slice's backing array).
func TestFinishedRootIsCollectable(t *testing.T) {
	freed := make(chan struct{}, 1)
	roots := 0
	m := NewMonitor(Config{OnRoot: func(ev RootEvent) {
		roots++
		if roots == 1 {
			runtime.SetFinalizer(ev.Root, func(*analysis.Node) { freed <- struct{}{} })
		}
	}})
	h := newLiveHarness(t, m, probe.AspectLatency)
	h.callSync("F", func() { h.callSync("G", nil) })
	if roots != 1 {
		t.Fatalf("%d roots delivered, want 1", roots)
	}
	deadline := time.After(5 * time.Second)
	for collected := false; !collected; {
		runtime.GC()
		select {
		case <-freed:
			collected = true
		case <-deadline:
			t.Fatal("finished root still reachable from the monitor after GC")
		case <-time.After(10 * time.Millisecond):
		}
	}
	// The chain's state is still there: a sibling root on the same chain
	// continues the sequence and completes.
	if len(m.chains) != 1 {
		t.Fatalf("monitor tracks %d chains, want the one whose root was freed", len(m.chains))
	}
	h.callSync("H", nil)
	if roots != 2 {
		t.Fatalf("sibling root on the surviving chain state not delivered (%d roots)", roots)
	}
	if open := m.OpenChains(); open != 0 {
		t.Fatalf("%d chains left open", open)
	}
}

// Records arriving in order never touch the early-arrival map; it exists
// only once something does arrive early, and drains when the gap fills.
func TestPendingAllocatedOnlyForEarlyArrivals(t *testing.T) {
	sink := &probe.MemorySink{}
	h := newLiveHarness(t, sink, 0)
	h.callSync("F", func() { h.callSync("G", nil) })
	recs := sink.Snapshot()

	var got int
	m := NewMonitor(Config{OnRoot: func(RootEvent) { got++ }})
	m.AppendBatch(recs)
	if got != 1 {
		t.Fatalf("in-order batch delivered %d roots, want 1", got)
	}
	for _, cs := range m.chains {
		if cs.pending != nil {
			t.Fatal("in-order records allocated the early-arrival map")
		}
	}

	got = 0
	m = NewMonitor(Config{OnRoot: func(RootEvent) { got++ }})
	swapped := append([]probe.Record(nil), recs...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	m.AppendBatch(swapped)
	if got != 1 {
		t.Fatalf("batch with an early arrival delivered %d roots, want 1", got)
	}
	for _, cs := range m.chains {
		if cs.pending == nil || len(cs.pending) != 0 {
			t.Fatalf("early arrival not parked and drained: pending=%v", cs.pending)
		}
	}
}
