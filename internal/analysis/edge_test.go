package analysis

import (
	"strings"
	"testing"
	"time"

	"causeway/internal/ftl"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/uuid"
)

func mkRec(chain uuid.UUID, seq uint64, ev ftl.Event, opname string, oneway bool) probe.Record {
	return probe.Record{
		Kind: probe.KindEvent, Process: "p1", Chain: chain, Seq: seq, Event: ev,
		Oneway: oneway,
		Op:     probe.OpID{Component: "c", Interface: "I", Operation: opname, Object: "o"},
	}
}

func storeOf(recs ...probe.Record) *logdb.Store {
	db := logdb.NewStore()
	db.Insert(recs...)
	return db
}

// Every malformed adjacency the Figure-4 state machine can hit must be
// flagged as an anomaly, never silently accepted or panicked on. Sequences
// a plausible failure explains (truncation, missing probe records) are
// classified broken instead — covered by TestParserBrokenVariants and
// broken_test.go.
func TestParserAnomalyVariants(t *testing.T) {
	c := uuid.UUID{0: 1}
	cases := []struct {
		name string
		recs []probe.Record
	}{
		{"skel_start for different op", []probe.Record{
			mkRec(c, 1, ftl.StubStart, "F", false),
			mkRec(c, 2, ftl.SkelStart, "G", false),
		}},
		{"chain starts with stub_end", []probe.Record{
			mkRec(c, 1, ftl.StubEnd, "F", false),
		}},
		{"callee chain interrupted by foreign skel_end", []probe.Record{
			mkRec(c, 1, ftl.SkelStart, "F", true),
			mkRec(c, 2, ftl.SkelEnd, "G", true),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := Reconstruct(storeOf(tc.recs...))
			if len(g.Anomalies) == 0 {
				t.Fatalf("no anomaly flagged")
			}
			if got := g.Anomalies[0].String(); !strings.Contains(got, "chain") {
				t.Fatalf("Anomaly.String = %q", got)
			}
		})
	}
}

// Sequences that are incomplete in a way a real failure produces — a
// deadline, a dead process, a lost record — are accepted as broken nodes
// and reported as warnings, never anomalies and never dropped.
func TestParserBrokenVariants(t *testing.T) {
	c := uuid.UUID{0: 1}
	cases := []struct {
		name       string
		recs       []probe.Record
		wantReason string
	}{
		{"chain ends after stub_start", []probe.Record{
			mkRec(c, 1, ftl.StubStart, "F", false),
		}, "missing skel_start, skel_end, and stub_end"},
		{"chain ends after oneway stub_start", []probe.Record{
			mkRec(c, 1, ftl.StubStart, "F", true),
		}, "missing stub_end"},
		{"oneway stub-exit record lost", []probe.Record{
			mkRec(c, 1, ftl.StubStart, "F", true),
			mkRec(c, 2, ftl.StubStart, "G", false),
			mkRec(c, 3, ftl.SkelStart, "G", false),
			mkRec(c, 4, ftl.SkelEnd, "G", false),
			mkRec(c, 5, ftl.StubEnd, "G", false),
		}, "missing stub_end"},
		{"skeleton-entry record lost with children", []probe.Record{
			mkRec(c, 1, ftl.StubStart, "F", false),
			mkRec(c, 2, ftl.StubStart, "G", false),
			mkRec(c, 3, ftl.SkelStart, "G", false),
			mkRec(c, 4, ftl.SkelEnd, "G", false),
			mkRec(c, 5, ftl.StubEnd, "G", false),
			mkRec(c, 6, ftl.SkelEnd, "F", false),
			mkRec(c, 7, ftl.StubEnd, "F", false),
		}, "missing skel_start"},
		{"skel_end not followed by stub_end", []probe.Record{
			mkRec(c, 1, ftl.StubStart, "F", false),
			mkRec(c, 2, ftl.SkelStart, "F", false),
			mkRec(c, 3, ftl.SkelEnd, "F", false),
		}, "missing stub_end"},
		{"stub_end directly after stub_start", []probe.Record{
			mkRec(c, 1, ftl.StubStart, "F", false),
			mkRec(c, 2, ftl.StubEnd, "F", false),
		}, "missing skel_start and skel_end"},
		{"missing skel_start only", []probe.Record{
			mkRec(c, 1, ftl.StubStart, "F", false),
			mkRec(c, 3, ftl.SkelEnd, "F", false),
			mkRec(c, 4, ftl.StubEnd, "F", false),
		}, "missing skel_start"},
		{"chain ends inside body", []probe.Record{
			mkRec(c, 1, ftl.StubStart, "F", false),
			mkRec(c, 2, ftl.SkelStart, "F", false),
		}, "missing skel_end and stub_end"},
		{"client abandoned mid-body, server finished", []probe.Record{
			mkRec(c, 1, ftl.StubStart, "F", false),
			mkRec(c, 2, ftl.SkelStart, "F", false),
			mkRec(c, 2, ftl.StubEnd, "F", false),
			mkRec(c, 3, ftl.SkelEnd, "F", false),
		}, "server completed anyway"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := Reconstruct(storeOf(tc.recs...))
			if len(g.Anomalies) != 0 {
				t.Fatalf("flagged as anomaly, want broken: %v", g.Anomalies)
			}
			if len(g.Broken) == 0 {
				t.Fatal("no broken chain reported")
			}
			if got := g.Broken[0].String(); !strings.Contains(got, tc.wantReason) {
				t.Fatalf("Broken[0] = %q, want substring %q", got, tc.wantReason)
			}
			if g.Nodes() == 0 {
				t.Fatal("broken invocation dropped from the graph")
			}
			broken := 0
			g.Walk(func(n *Node) {
				if n.Broken {
					broken++
				}
			})
			if broken == 0 {
				t.Fatal("no node carries the Broken mark")
			}
		})
	}
}

// Both orders of the stub_end/skel_start sequence-number tie (the error
// path's stub_end shares seq with the server's skel_start, and the stable
// sort preserves insertion order) must reconstruct into identical nodes.
func TestBrokenTieOrderInsensitive(t *testing.T) {
	c := uuid.UUID{0: 9}
	recs := func(stubEndFirst bool) []probe.Record {
		a := mkRec(c, 2, ftl.StubEnd, "F", false)
		b := mkRec(c, 2, ftl.SkelStart, "F", false)
		if !stubEndFirst {
			a, b = b, a
		}
		return []probe.Record{
			mkRec(c, 1, ftl.StubStart, "F", false),
			a, b,
			mkRec(c, 3, ftl.SkelEnd, "F", false),
		}
	}
	g1 := Reconstruct(storeOf(recs(true)...))
	g2 := Reconstruct(storeOf(recs(false)...))
	for _, g := range []*DSCG{g1, g2} {
		if len(g.Anomalies) != 0 || len(g.Broken) != 1 || g.Nodes() != 1 {
			t.Fatalf("anomalies=%v broken=%v nodes=%d", g.Anomalies, g.Broken, g.Nodes())
		}
	}
	if g1.Broken[0] != g2.Broken[0] {
		t.Fatalf("tie orders diverge: %v vs %v", g1.Broken[0], g2.Broken[0])
	}
	n1, n2 := g1.Trees[0].Roots[0], g2.Trees[0].Roots[0]
	has := func(n *Node) [4]bool {
		return [4]bool{n.StubStart != nil, n.SkelStart != nil, n.SkelEnd != nil, n.StubEnd != nil}
	}
	if has(n1) != has(n2) {
		t.Fatalf("tie orders collected different records: %v vs %v", has(n1), has(n2))
	}
	if n1.BrokenReason != n2.BrokenReason {
		t.Fatalf("reasons diverge: %q vs %q", n1.BrokenReason, n2.BrokenReason)
	}
}

// TestOnewayStubSideLatency: a oneway node with latency-armed callee-side
// records gets the skeleton-side L; one with stub-only records gets none.
func TestOnewayLatencyVariants(t *testing.T) {
	parent := uuid.UUID{0: 2}
	child := uuid.UUID{0: 3}
	at := func(us int64) time.Time { return time.Unix(7, 0).Add(time.Duration(us) * time.Microsecond) }
	wall := func(r probe.Record, s, e int64) probe.Record {
		r.LatencyArmed = true
		r.WallStart, r.WallEnd = at(s), at(e)
		return r
	}
	db := storeOf(
		wall(mkRec(parent, 1, ftl.StubStart, "F", true), 0, 1),
		wall(mkRec(parent, 2, ftl.StubEnd, "F", true), 10, 11),
		wall(mkRec(child, 1, ftl.SkelStart, "F", true), 20, 21),
		wall(mkRec(child, 2, ftl.SkelEnd, "F", true), 70, 71),
		probe.Record{Kind: probe.KindLink, LinkParent: parent, LinkParentSeq: 1, LinkChild: child},
	)
	g := Reconstruct(db)
	if len(g.Anomalies) != 0 || g.Nodes() != 1 {
		t.Fatalf("nodes=%d anomalies=%v", g.Nodes(), g.Anomalies)
	}
	g.ComputeLatency()
	n := g.Trees[0].Roots[0]
	if !n.HasLatency {
		t.Fatal("oneway node has no latency despite callee-side windows")
	}
	// L = P3,start − P2,end = 70 − 21 = 49µs.
	if n.Latency != 49*time.Microsecond {
		t.Fatalf("oneway L = %v, want 49µs", n.Latency)
	}
}

// TestLatencySkipsDisarmedNodes: a node missing windows stays unannotated
// while its sibling with windows is computed.
func TestLatencyPartialArming(t *testing.T) {
	c := uuid.UUID{0: 4}
	at := func(us int64) time.Time { return time.Unix(9, 0).Add(time.Duration(us) * time.Microsecond) }
	wall := func(r probe.Record, s, e int64) probe.Record {
		r.LatencyArmed = true
		r.WallStart, r.WallEnd = at(s), at(e)
		return r
	}
	db := storeOf(
		// F: no windows at all.
		mkRec(c, 1, ftl.StubStart, "F", false),
		mkRec(c, 2, ftl.SkelStart, "F", false),
		mkRec(c, 3, ftl.SkelEnd, "F", false),
		mkRec(c, 4, ftl.StubEnd, "F", false),
		// G: armed.
		wall(mkRec(c, 5, ftl.StubStart, "G", false), 0, 1),
		wall(mkRec(c, 6, ftl.SkelStart, "G", false), 5, 6),
		wall(mkRec(c, 7, ftl.SkelEnd, "G", false), 20, 21),
		wall(mkRec(c, 8, ftl.StubEnd, "G", false), 30, 31),
	)
	g := Reconstruct(db)
	g.ComputeLatency()
	f, gg := g.Trees[0].Roots[0], g.Trees[0].Roots[1]
	if f.HasLatency {
		t.Fatal("disarmed node got latency")
	}
	if !gg.HasLatency {
		t.Fatal("armed sibling has no latency")
	}
	// Raw L(G) = P4,start − P1,end = 30 − 1 = 29µs; O = G's own probe-2/3
	// windows = 1 + 1 = 2µs ⇒ L = 27µs.
	if gg.Latency != 27*time.Microsecond {
		t.Fatalf("armed sibling L = %v, want 27µs", gg.Latency)
	}
}

// TestCPUMissingThreadMatch: skeleton records on different threads (a
// broken scheduler) must not produce a bogus SC.
func TestCPUThreadMismatchRejected(t *testing.T) {
	c := uuid.UUID{0: 5}
	cpu := func(r probe.Record, thr uint64, s, e time.Duration) probe.Record {
		r.CPUArmed = true
		r.Thread = thr
		r.CPUStart, r.CPUEnd = s, e
		return r
	}
	db := storeOf(
		cpu(mkRec(c, 1, ftl.StubStart, "F", false), 1, 0, 0),
		cpu(mkRec(c, 2, ftl.SkelStart, "F", false), 2, 0, time.Millisecond),
		cpu(mkRec(c, 3, ftl.SkelEnd, "F", false), 3, 5*time.Millisecond, 6*time.Millisecond), // wrong thread!
		cpu(mkRec(c, 4, ftl.StubEnd, "F", false), 1, 0, 0),
	)
	g := Reconstruct(db)
	g.ComputeCPU()
	if g.Trees[0].Roots[0].HasCPU {
		t.Fatal("SC computed from mismatched threads")
	}
}

func TestNodeCountAndWalkOrder(t *testing.T) {
	c := uuid.UUID{0: 6}
	db := storeOf(
		mkRec(c, 1, ftl.StubStart, "F", false),
		mkRec(c, 2, ftl.SkelStart, "F", false),
		mkRec(c, 3, ftl.StubStart, "G", false),
		mkRec(c, 4, ftl.SkelStart, "G", false),
		mkRec(c, 5, ftl.SkelEnd, "G", false),
		mkRec(c, 6, ftl.StubEnd, "G", false),
		mkRec(c, 7, ftl.SkelEnd, "F", false),
		mkRec(c, 8, ftl.StubEnd, "F", false),
	)
	g := Reconstruct(db)
	root := g.Trees[0].Roots[0]
	if root.Count() != 2 {
		t.Fatalf("Count = %d", root.Count())
	}
	var order []string
	root.Walk(func(n *Node) { order = append(order, n.Op().Operation) })
	if len(order) != 2 || order[0] != "F" || order[1] != "G" {
		t.Fatalf("Walk order = %v", order)
	}
	if root.ServerProcess() != "p1" || root.ClientProcess() != "p1" || root.ServerProcType() != "" {
		t.Fatalf("process accessors: %q %q %q", root.ServerProcess(), root.ClientProcess(), root.ServerProcType())
	}
}

func TestCCSGTotalDescCPU(t *testing.T) {
	n := &CCSGNode{DescCPU: map[string]time.Duration{"a": time.Second, "b": 2 * time.Second}}
	if got := n.TotalDescCPU(); got != 3*time.Second {
		t.Fatalf("TotalDescCPU = %v", got)
	}
}

// TestInteractions collapses a two-component chain into its component
// interaction edges (§3.1's "component object interaction" view).
func TestInteractions(t *testing.T) {
	c := uuid.UUID{0: 7}
	mk := func(seq uint64, ev ftl.Event, opname, comp, proc string, oneway bool) probe.Record {
		return probe.Record{
			Kind: probe.KindEvent, Process: proc, Chain: c, Seq: seq, Event: ev,
			Oneway: oneway,
			Op:     probe.OpID{Component: comp, Interface: "I", Operation: opname, Object: "o"},
		}
	}
	db := storeOf(
		// client -> front.F (cross-process), front -> back.G (cross-process)
		mk(1, ftl.StubStart, "F", "front", "pc", false),
		mk(2, ftl.SkelStart, "F", "front", "pf", false),
		mk(3, ftl.StubStart, "G", "back", "pf", false),
		mk(4, ftl.SkelStart, "G", "back", "pb", false),
		mk(5, ftl.SkelEnd, "G", "back", "pb", false),
		mk(6, ftl.StubEnd, "G", "back", "pf", false),
		mk(7, ftl.SkelEnd, "F", "front", "pf", false),
		mk(8, ftl.StubEnd, "F", "front", "pc", false),
	)
	g := Reconstruct(db)
	edges := g.Interactions()
	if len(edges) != 2 {
		t.Fatalf("edges = %+v", edges)
	}
	byKey := map[string]Interaction{}
	for _, e := range edges {
		byKey[e.Caller+"->"+e.Callee] = e
	}
	cf := byKey[ClientComponent+"->front"]
	if cf.Calls != 1 || cf.CrossProcess != 1 {
		t.Fatalf("client->front = %+v", cf)
	}
	fb := byKey["front->back"]
	if fb.Calls != 1 || fb.CrossProcess != 1 || fb.Oneway != 0 {
		t.Fatalf("front->back = %+v", fb)
	}
	if cf.MeanLatency() != 0 {
		t.Fatalf("latency-less edge has mean %v", cf.MeanLatency())
	}
}
