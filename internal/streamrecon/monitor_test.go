package streamrecon

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"causeway/internal/analysis"
	"causeway/internal/ftl"
	"causeway/internal/probe"
	"causeway/internal/topology"
	"causeway/internal/uuid"
	"causeway/internal/vclock"
)

// liveHarness drives real probes straight into a table without a store:
// the live monitor.
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
	// The stub's span — stub_start, link, stub_end — is appended when it
	// closes. Close it before the callee runs, so the link always reaches
	// the monitor ahead of the callee-side root it parents.
	h.p.StubEnd(ctx, ftl.FTL{})
	go func() {
		defer close(done)
		sctx := h.p.SkelStart(op, wire, true)
		h.p.SkelEnd(sctx)
	}()
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

// mkEvent builds a synthetic event record of chain c.
func mkEvent(c uuid.UUID, seq uint64, ev ftl.Event, name string) probe.Record {
	return probe.Record{Kind: probe.KindEvent, Chain: c, Seq: seq, Event: ev, Op: probe.OpID{Operation: name}}
}

// capture collects what a monitor delivers.
type capture struct {
	roots     []*analysis.Node
	anomalies []analysis.Anomaly
}

func (c *capture) monitor() *Assembler {
	return NewMonitor(Config{
		OnRoot:    func(ev RootEvent) { c.roots = append(c.roots, ev.Root) },
		OnAnomaly: func(a analysis.Anomaly) { c.anomalies = append(c.anomalies, a) },
	})
}

func TestOnlineAnomalyAndRecovery(t *testing.T) {
	var got capture
	m := got.monitor()
	chain := uuid.UUID{0: 1}
	// Corrupt: skel_end for an op that never started; then a clean call.
	m.Append(mkEvent(chain, 1, ftl.SkelEnd, "X"))
	m.Append(mkEvent(chain, 2, ftl.StubStart, "F"))
	m.Append(mkEvent(chain, 3, ftl.SkelStart, "F"))
	m.Append(mkEvent(chain, 4, ftl.SkelEnd, "F"))
	m.Append(mkEvent(chain, 5, ftl.StubEnd, "F"))
	// The offline classification: the stray event is skipped where it
	// stands, as event[0] of the chain, and nothing else is disturbed.
	want := analysis.Anomaly{Chain: chain, Index: 0, Reason: "chain cannot continue with skel_end(X)"}
	if len(got.anomalies) != 1 || got.anomalies[0] != want {
		t.Fatalf("anomalies = %v, want [%v]", got.anomalies, want)
	}
	if len(got.roots) != 1 || got.roots[0].Broken || got.roots[0].StubEnd == nil {
		t.Fatalf("clean call after corruption: roots = %v, want one clean root", got.roots)
	}
}

func TestOnlineFlushReportsOpenChains(t *testing.T) {
	var got capture
	m := got.monitor()
	chain := uuid.UUID{0: 2}
	m.Append(mkEvent(chain, 1, ftl.StubStart, "hung"))
	if m.OpenChains() != 1 || len(got.roots) != 0 {
		t.Fatalf("OpenChains = %d, %d roots before flush", m.OpenChains(), len(got.roots))
	}
	m.FlushOpen()
	// A call that never returned is a failure remnant, not an impossible
	// transition: a broken root, as the analyzer classifies it.
	if len(got.anomalies) != 0 {
		t.Fatalf("flush reported anomalies: %v", got.anomalies)
	}
	if len(got.roots) != 1 || !got.roots[0].Broken ||
		got.roots[0].BrokenReason != "missing skel_start, skel_end, and stub_end (chain ends after stub_start)" {
		t.Fatalf("flush delivered %v, want the hung call as one broken root", got.roots)
	}
	if m.OpenChains() != 0 {
		t.Fatal("flush did not clear state")
	}
}

// The deadline tie: a client that gives up emits its stub_end at the seq
// the server's skel_start takes. Both records of the tie are applied, in
// either arrival order, and the root closes — broken, with all four
// records — the moment the server's skel_end shows nothing can amend it.
func TestOnlineDeadlineTieApplied(t *testing.T) {
	chain := uuid.UUID{0: 3}
	for _, stubEndFirst := range []bool{true, false} {
		a, b := mkEvent(chain, 2, ftl.StubEnd, "F"), mkEvent(chain, 2, ftl.SkelStart, "F")
		if !stubEndFirst {
			a, b = b, a
		}
		var got capture
		m := got.monitor()
		m.AppendBatch([]probe.Record{mkEvent(chain, 1, ftl.StubStart, "F"), a, b})
		if len(got.roots) != 0 {
			t.Fatalf("stubEndFirst=%v: root delivered while its skel_end could still amend it", stubEndFirst)
		}
		m.Append(mkEvent(chain, 3, ftl.SkelEnd, "F"))
		if len(got.anomalies) != 0 || m.OpenChains() != 0 {
			t.Fatalf("stubEndFirst=%v: anomalies %v, %d chains open", stubEndFirst, got.anomalies, m.OpenChains())
		}
		if len(got.roots) != 1 {
			t.Fatalf("stubEndFirst=%v: %d roots, want 1", stubEndFirst, len(got.roots))
		}
		r := got.roots[0]
		if r.StubStart == nil || r.SkelStart == nil || r.SkelEnd == nil || r.StubEnd == nil {
			t.Fatalf("stubEndFirst=%v: a record of the tie was lost: %+v", stubEndFirst, r)
		}
		if want := "stub_end overlaps the skeleton records (client abandoned the call; server completed anyway)"; !r.Broken || r.BrokenReason != want {
			t.Fatalf("stubEndFirst=%v: broken=%v reason=%q, want %q", stubEndFirst, r.Broken, r.BrokenReason, want)
		}
	}
}

// An ack lost on the wire makes the shipper send the frame again. Records
// the chain's cursor is at or past are dropped, not parked as if a later
// seq could still unblock them.
func TestOnlineResentFrameDropped(t *testing.T) {
	chain := uuid.UUID{0: 4}
	frame := []probe.Record{
		mkEvent(chain, 1, ftl.StubStart, "F"),
		mkEvent(chain, 2, ftl.SkelStart, "F"),
		mkEvent(chain, 3, ftl.SkelEnd, "F"),
		mkEvent(chain, 4, ftl.StubEnd, "F"),
	}
	var got capture
	m := got.monitor()
	m.AppendBatch(frame)
	m.AppendBatch(frame)
	if len(got.roots) != 1 || len(got.anomalies) != 0 {
		t.Fatalf("%d roots, anomalies %v; want the one root and nothing else", len(got.roots), got.anomalies)
	}
	if open := m.OpenChains(); open != 0 {
		t.Fatalf("resent records left %d chains open", open)
	}
	m.FlushOpen()
	if len(got.roots) != 1 || len(got.anomalies) != 0 {
		t.Fatalf("flush after a resend delivered more: %d roots, anomalies %v", len(got.roots), got.anomalies)
	}
}

// A chain stalled on a seq gap — a retry renumbered the call at the ORB's
// stride, or a record was lost — is parsed across the gap at Flush, the way
// the analyzer parses it, instead of being summarised and discarded.
func TestOnlineGapDeliveredAtFlush(t *testing.T) {
	retried, lossy := uuid.UUID{0: 5}, uuid.UUID{0: 6}
	var got capture
	m := got.monitor()
	m.AppendBatch([]probe.Record{
		mkEvent(retried, 1, ftl.StubStart, "F"),
		mkEvent(retried, 4098, ftl.SkelStart, "F"),
		mkEvent(retried, 4099, ftl.SkelEnd, "F"),
		mkEvent(retried, 4100, ftl.StubEnd, "F"),
		mkEvent(lossy, 1, ftl.StubStart, "G"),
		mkEvent(lossy, 3, ftl.SkelEnd, "G"),
		mkEvent(lossy, 4, ftl.StubEnd, "G"),
	})
	if len(got.roots) != 0 || m.OpenChains() != 2 {
		t.Fatalf("before flush: %d roots, %d chains open; want 0 and 2", len(got.roots), m.OpenChains())
	}
	m.FlushOpen()
	if len(got.anomalies) != 0 {
		t.Fatalf("flush reported anomalies: %v", got.anomalies)
	}
	if len(got.roots) != 2 {
		t.Fatalf("flush delivered %d roots, want 2", len(got.roots))
	}
	if r := got.roots[0]; r.Chain != retried || r.Broken || r.StubEnd == nil || r.SkelStart == nil {
		t.Fatalf("retried call: %+v, want a clean root", r)
	}
	if r := got.roots[1]; r.Chain != lossy || r.BrokenReason != "missing skel_start (skeleton-entry record lost)" || r.StubEnd == nil {
		t.Fatalf("lossy call: %+v, want a root broken by the lost skel_start", r)
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
// uncleared would, through the slice's backing array) nor the chunk its
// records were copied into.
func TestFinishedRootIsCollectable(t *testing.T) {
	freed := make(chan string, 2)
	roots := 0
	m := NewMonitor(Config{OnRoot: func(ev RootEvent) {
		roots++
		if roots == 1 {
			runtime.SetFinalizer(ev.Root, func(*analysis.Node) { freed <- "tree" })
			// The tree's eight records fill the one chunk they were copied
			// into (server spans arrive early and are parked there too), so
			// the lowest record address is the chunk's.
			var first *probe.Record
			ev.Root.Walk(func(n *analysis.Node) {
				for _, r := range []*probe.Record{n.StubStart, n.SkelStart, n.SkelEnd, n.StubEnd} {
					if first == nil || uintptr(unsafe.Pointer(r)) < uintptr(unsafe.Pointer(first)) {
						first = r
					}
				}
			})
			runtime.SetFinalizer(first, func(*probe.Record) { freed <- "records" })
		}
	}})
	h := newLiveHarness(t, m, probe.AspectLatency)
	h.callSync("F", func() { h.callSync("G", nil) })
	if roots != 1 {
		t.Fatalf("%d roots delivered, want 1", roots)
	}
	deadline := time.After(5 * time.Second)
	for left := map[string]bool{"tree": true, "records": true}; len(left) > 0; {
		runtime.GC()
		select {
		case what := <-freed:
			delete(left, what)
		case <-deadline:
			t.Fatalf("finished root still reachable from the monitor after GC: %v", left)
		case <-time.After(10 * time.Millisecond):
		}
	}
	// The chain's cursor is still there: a sibling root on the same chain
	// continues the sequence and completes (a fresh cursor would park it).
	h.callSync("H", nil)
	if roots != 2 {
		t.Fatalf("sibling root on the surviving chain state not delivered (%d roots)", roots)
	}
	if open := m.OpenChains(); open != 0 {
		t.Fatalf("%d chains left open", open)
	}
}
