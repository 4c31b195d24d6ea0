package analysis

import (
	"testing"

	"causeway/internal/cputime"
	"causeway/internal/ftl"
	"causeway/internal/gls"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/topology"
	"causeway/internal/uuid"
	"causeway/internal/vclock"
)

// harness drives real probes into a store, simulating a distributed run.
type harness struct {
	t     testing.TB
	p     *probe.Probes
	sink  *probe.MemorySink
	meter *cputime.VirtualMeter
	clock *vclock.Virtual
}

func newHarness(t testing.TB, aspects probe.Aspect) *harness {
	t.Helper()
	sink := &probe.MemorySink{}
	clock := vclock.NewVirtual()
	meter := cputime.NewVirtualMeter(gid)
	p, err := probe.New(probe.Config{
		Process: topology.Process{ID: "p1", Processor: topology.Processor{ID: "c0", Type: "x86"}},
		Aspects: aspects,
		Clock:   clock,
		Meter:   meter,
		Sink:    sink,
		Chains:  &uuid.SequentialGenerator{Seed: 42},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &harness{t: t, p: p, sink: sink, meter: meter, clock: clock}
}

// gid keys the virtual meter by goroutine, matching how real dispatch
// threads are metered.
func gid() uint64 { return gls.GoroutineID() }

func (h *harness) op(name string) probe.OpID {
	return probe.OpID{Component: "comp", Interface: "Iface", Operation: name, Object: "obj-" + name}
}

func (h *harness) callSync(name string, body func()) {
	ctx := h.p.StubStart(h.op(name), false)
	wire := ctx.Wire
	reply := make(chan ftl.FTL, 1)
	go func() {
		sctx := h.p.SkelStart(h.op(name), wire, false)
		if body != nil {
			body()
		}
		reply <- h.p.SkelEnd(sctx)
	}()
	h.p.StubEnd(ctx, <-reply)
}

func (h *harness) callColloc(name string, body func()) {
	ctx := h.p.CollocStart(h.op(name))
	if body != nil {
		body()
	}
	h.p.CollocEnd(ctx)
}

func (h *harness) callOneway(name string, body func()) <-chan struct{} {
	ctx := h.p.StubStart(h.op(name), true)
	wire := ctx.Wire
	done := make(chan struct{})
	go func() {
		defer close(done)
		sctx := h.p.SkelStart(h.op(name), wire, true)
		if body != nil {
			body()
		}
		h.p.SkelEnd(sctx)
	}()
	h.p.StubEnd(ctx, ftl.FTL{})
	return done
}

func (h *harness) reconstruct() *DSCG {
	h.p.Tunnel().Clear()
	db := logdb.NewStore()
	db.Insert(h.sink.Snapshot()...)
	return Reconstruct(db)
}

func shape(n *Node) string {
	s := n.Op().Operation
	if n.Oneway {
		s += "!"
	}
	if n.Collocated {
		s += "*"
	}
	if len(n.Children) == 0 {
		return s
	}
	s += "("
	for i, c := range n.Children {
		if i > 0 {
			s += " "
		}
		s += shape(c)
	}
	return s + ")"
}

func graphShape(g *DSCG) string {
	out := ""
	for _, t := range g.Trees {
		for _, r := range t.Roots {
			if out != "" {
				out += " "
			}
			out += shape(r)
		}
	}
	return out
}

func TestFigure4SyncNesting(t *testing.T) {
	h := newHarness(t, 0)
	h.callSync("F", func() {
		h.callSync("G", func() {
			h.callSync("H", nil)
		})
	})
	g := h.reconstruct()
	if len(g.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", g.Anomalies)
	}
	if got := graphShape(g); got != "F(G(H))" {
		t.Fatalf("shape = %q", got)
	}
	if g.Nodes() != 3 {
		t.Fatalf("Nodes = %d", g.Nodes())
	}
}

func TestFigure4Siblings(t *testing.T) {
	h := newHarness(t, 0)
	h.callSync("F", nil)
	h.callSync("G", nil)
	g := h.reconstruct()
	if len(g.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", g.Anomalies)
	}
	if got := graphShape(g); got != "F G" {
		t.Fatalf("shape = %q", got)
	}
	if len(g.Trees) != 1 {
		t.Fatalf("siblings split into %d trees", len(g.Trees))
	}
}

func TestFigure4CascadingInsideBody(t *testing.T) {
	h := newHarness(t, 0)
	h.callSync("F", func() {
		h.callSync("G1", nil)
		h.callSync("G2", nil)
	})
	g := h.reconstruct()
	if got := graphShape(g); got != "F(G1 G2)" {
		t.Fatalf("shape = %q", got)
	}
}

func TestFigure4Recursion(t *testing.T) {
	h := newHarness(t, 0)
	var rec func(depth int)
	rec = func(depth int) {
		if depth == 0 {
			return
		}
		h.callSync("F", func() { rec(depth - 1) })
	}
	rec(4)
	g := h.reconstruct()
	if got := graphShape(g); got != "F(F(F(F)))" {
		t.Fatalf("shape = %q", got)
	}
	if len(g.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", g.Anomalies)
	}
}

func TestFigure4OnewayStitching(t *testing.T) {
	h := newHarness(t, 0)
	done := make(chan (<-chan struct{}), 1)
	h.callSync("F", func() {
		done <- h.callOneway("A", func() {
			h.callSync("B", nil)
		})
	})
	<-<-done
	g := h.reconstruct()
	if len(g.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", g.Anomalies)
	}
	if got := graphShape(g); got != "F(A!(B))" {
		t.Fatalf("shape = %q", got)
	}
	// The oneway node must carry both stub- and skel-side records.
	n := g.Trees[0].Roots[0].Children[0]
	if n.StubStart == nil || n.StubEnd == nil || n.SkelStart == nil || n.SkelEnd == nil {
		t.Fatal("oneway node missing records after stitching")
	}
	if n.StubStart.Chain == n.SkelStart.Chain {
		t.Fatal("oneway stub and skel sides share a chain; fork did not happen")
	}
}

func TestFigure4CollocatedMixed(t *testing.T) {
	h := newHarness(t, 0)
	h.callSync("F", func() {
		h.callColloc("C", func() {
			h.callSync("D", nil)
		})
	})
	g := h.reconstruct()
	if got := graphShape(g); got != "F(C*(D))" {
		t.Fatalf("shape = %q", got)
	}
}

func TestAbnormalTransitionRestarts(t *testing.T) {
	// Hand-build a chain with a corrupted middle: F.stub_start,
	// F.skel_start, then an orphan skel_end of a different op, then a valid
	// complete call G. The analyzer must flag the failure and still
	// recover G.
	chain := uuid.UUID{0: 9}
	mk := func(seq uint64, ev ftl.Event, opname string) probe.Record {
		return probe.Record{
			Kind: probe.KindEvent, Process: "p1", Chain: chain, Seq: seq, Event: ev,
			Op: probe.OpID{Component: "c", Interface: "I", Operation: opname, Object: "o"},
		}
	}
	db := logdb.NewStore()
	db.Insert(
		mk(1, ftl.StubStart, "F"),
		mk(2, ftl.SkelStart, "F"),
		mk(3, ftl.SkelEnd, "X"), // corruption: X never started
		mk(4, ftl.StubStart, "G"),
		mk(5, ftl.SkelStart, "G"),
		mk(6, ftl.SkelEnd, "G"),
		mk(7, ftl.StubEnd, "G"),
	)
	g := Reconstruct(db)
	if len(g.Anomalies) == 0 {
		t.Fatal("corruption produced no anomaly")
	}
	found := false
	g.Walk(func(n *Node) {
		if n.Op().Operation == "G" && n.StubStart != nil && n.StubEnd != nil {
			found = true
		}
	})
	if !found {
		t.Fatalf("valid call G not recovered; shape %q, anomalies %v", graphShape(g), g.Anomalies)
	}
}

func TestTruncatedChainFlagged(t *testing.T) {
	chain := uuid.UUID{0: 7}
	db := logdb.NewStore()
	db.Insert(
		probe.Record{Kind: probe.KindEvent, Chain: chain, Seq: 1, Event: ftl.StubStart,
			Op: probe.OpID{Operation: "F"}},
		probe.Record{Kind: probe.KindEvent, Chain: chain, Seq: 2, Event: ftl.SkelStart,
			Op: probe.OpID{Operation: "F"}},
		// Process died: no skel_end / stub_end.
	)
	g := Reconstruct(db)
	// A chain that simply stops is the plausible remnant of a dead process:
	// classified broken (a warning), not anomalous, and the node is kept.
	if len(g.Anomalies) != 0 {
		t.Fatalf("truncated chain flagged as anomaly: %v", g.Anomalies)
	}
	if len(g.Broken) != 1 {
		t.Fatalf("Broken = %v, want one entry", g.Broken)
	}
	if len(g.Trees) != 1 || len(g.Trees[0].Roots) != 1 {
		t.Fatalf("truncated chain's node dropped: %+v", g.Trees)
	}
	n := g.Trees[0].Roots[0]
	if !n.Broken || n.BrokenReason == "" {
		t.Fatalf("node not marked broken: %+v", n)
	}
	if n.StubStart == nil || n.SkelStart == nil {
		t.Fatal("broken node lost its collected records")
	}
}

func TestOrphanCalleeChainSurfaced(t *testing.T) {
	// A callee-side chain with no link record (e.g. parent's log lost).
	chain := uuid.UUID{0: 5}
	db := logdb.NewStore()
	db.Insert(
		probe.Record{Kind: probe.KindEvent, Chain: chain, Seq: 1, Event: ftl.SkelStart,
			Oneway: true, Op: probe.OpID{Operation: "A"}},
		probe.Record{Kind: probe.KindEvent, Chain: chain, Seq: 2, Event: ftl.SkelEnd,
			Oneway: true, Op: probe.OpID{Operation: "A"}},
	)
	g := Reconstruct(db)
	if len(g.Trees) != 1 {
		t.Fatalf("orphan chain not kept: %d trees", len(g.Trees))
	}
	if len(g.Anomalies) == 0 {
		t.Fatal("orphan chain not flagged")
	}
}

func TestConcurrentClientsSeparateChains(t *testing.T) {
	h := newHarness(t, 0)
	const clients = 8
	dones := make(chan struct{}, clients)
	for i := 0; i < clients; i++ {
		go func() {
			h.callSync("F", nil)
			h.p.Tunnel().Clear()
			dones <- struct{}{}
		}()
	}
	for i := 0; i < clients; i++ {
		<-dones
	}
	g := h.reconstruct()
	if len(g.Trees) != clients {
		t.Fatalf("%d clients produced %d trees", clients, len(g.Trees))
	}
	if len(g.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", g.Anomalies)
	}
}

// newHarnessB is the benchmark variant of newHarness (causality only).
func newHarnessB(b *testing.B) *harness { return newHarness(b, 0) }

// newStoreFromSink snapshots a harness's sink into a fresh store.
func newStoreFromSink(h *harness) *logdb.Store {
	db := logdb.NewStore()
	db.Insert(h.sink.Snapshot()...)
	return db
}
