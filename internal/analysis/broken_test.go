package analysis

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"causeway/internal/ftl"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/uuid"
)

// fullLog builds a healthy multi-chain log: chain A hosts root F with a
// nested sync child G and a oneway fork H whose callee side runs on chain
// B. Deleting whole event classes from this log simulates the partial
// traces real failures leave behind.
func fullLog() []probe.Record {
	a, b := uuid.UUID{0: 0xa}, uuid.UUID{0: 0xb}
	return []probe.Record{
		mkRec(a, 1, ftl.StubStart, "F", false),
		mkRec(a, 2, ftl.SkelStart, "F", false),
		mkRec(a, 3, ftl.StubStart, "G", false),
		mkRec(a, 4, ftl.SkelStart, "G", false),
		mkRec(a, 5, ftl.SkelEnd, "G", false),
		mkRec(a, 6, ftl.StubEnd, "G", false),
		mkRec(a, 7, ftl.StubStart, "H", true),
		mkRec(a, 8, ftl.StubEnd, "H", true),
		{Kind: probe.KindLink, LinkParent: a, LinkParentSeq: 7, LinkChild: b},
		mkRec(b, 1, ftl.SkelStart, "H", true),
		mkRec(b, 2, ftl.SkelEnd, "H", true),
		mkRec(a, 9, ftl.SkelEnd, "F", false),
		mkRec(a, 10, ftl.StubEnd, "F", false),
	}
}

func without(recs []probe.Record, ev ftl.Event) []probe.Record {
	var out []probe.Record
	for _, r := range recs {
		if r.Kind == probe.KindEvent && r.Event == ev {
			continue
		}
		out = append(out, r)
	}
	return out
}

// describe renders the graph's structure and classifications into a
// comparable string.
func describe(g *DSCG) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "nodes=%d trees=%d\n", g.Nodes(), len(g.Trees))
	g.Walk(func(n *Node) {
		fmt.Fprintf(&sb, "node %s broken=%v reason=%q records=%v%v%v%v\n",
			n.Op().Operation, n.Broken, n.BrokenReason,
			n.StubStart != nil, n.SkelStart != nil, n.SkelEnd != nil, n.StubEnd != nil)
	})
	for _, bc := range g.Broken {
		fmt.Fprintf(&sb, "broken: %s\n", bc)
	}
	for _, an := range g.Anomalies {
		fmt.Fprintf(&sb, "anomaly: %s\n", an)
	}
	return sb.String()
}

// TestBrokenChainsPerEventClass deletes each probe event class in turn and
// verifies that reconstruction never panics, that sequential and parallel
// reconstruction report identical warnings, and that the failure classes
// the invocation path actually produces (missing skel_start, skel_end, or
// stub_end) surface as broken-chain warnings rather than anomalies.
func TestBrokenChainsPerEventClass(t *testing.T) {
	classes := []struct {
		ev             ftl.Event
		wantBroken     bool // deletion must yield broken-chain warnings
		allowAnomalies bool // headless remnants may additionally be anomalous
	}{
		{ftl.StubStart, false, true}, // headless chains are genuinely anomalous
		{ftl.SkelStart, true, true},  // callee chain loses its head too
		{ftl.SkelEnd, true, false},
		{ftl.StubEnd, true, false},
	}
	for _, tc := range classes {
		t.Run(tc.ev.String(), func(t *testing.T) {
			recs := without(fullLog(), tc.ev)
			mk := func() *logdb.Store {
				db := logdb.NewStore()
				db.Insert(recs...)
				return db
			}
			seq := Reconstruct(mk())
			par := ReconstructParallel(mk(), 4)
			if ds, dp := describe(seq), describe(par); ds != dp {
				t.Fatalf("sequential and parallel reconstruction diverge:\n--- sequential\n%s--- parallel\n%s", ds, dp)
			}
			if !reflect.DeepEqual(seq.Broken, par.Broken) {
				t.Fatalf("Broken lists differ: %v vs %v", seq.Broken, par.Broken)
			}
			if !reflect.DeepEqual(seq.Anomalies, par.Anomalies) {
				t.Fatalf("Anomaly lists differ: %v vs %v", seq.Anomalies, par.Anomalies)
			}
			if tc.wantBroken && len(seq.Broken) == 0 {
				t.Fatalf("deleting %s produced no broken-chain warning\n%s", tc.ev, describe(seq))
			}
			if !tc.allowAnomalies && len(seq.Anomalies) != 0 {
				t.Fatalf("deleting %s produced anomalies, want warnings only: %v", tc.ev, seq.Anomalies)
			}
			if seq.Nodes() == 0 {
				t.Fatal("every node dropped")
			}
		})
	}
}
