package analysis_test

import (
	"bytes"
	"maps"
	"runtime"
	"testing"
	"time"

	"causeway/internal/analysis"
	"causeway/internal/ftl"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/render"
	"causeway/internal/workload"
)

// serialProbeCost is the formula ComputeLatency's one post-order pass
// replaced, kept as its oracle: the probe-window time the subtree rooted at
// c contributes to its caller's span, found by walking the whole subtree
// again for every ancestor.
func serialProbeCost(c *analysis.Node) time.Duration {
	var cost time.Duration
	switch {
	case c.Oneway:
		return oracleWindow(c.StubStart) + oracleWindow(c.StubEnd)
	case c.Collocated:
		cost = oracleWindow(c.SkelStart) + oracleWindow(c.StubEnd)
	default:
		cost = oracleWindow(c.StubStart) + oracleWindow(c.SkelStart) + oracleWindow(c.SkelEnd) + oracleWindow(c.StubEnd)
	}
	for _, cc := range c.Children {
		cost += serialProbeCost(cc)
	}
	return cost
}

func oracleWindowed(r *probe.Compact) bool {
	return r != nil && r.LatencyArmed && !probe.WallTime(r.WallStart).IsZero() && !probe.WallTime(r.WallEnd).IsZero()
}

func oracleWindow(r *probe.Compact) time.Duration {
	if !oracleWindowed(r) {
		return 0
	}
	return probe.WallTime(r.WallEnd).Sub(probe.WallTime(r.WallStart))
}

// oracleLatency annotates one node the way the per-node pass did, with the
// clock hygiene the one pass adds: no latency from a negative span.
func oracleLatency(n *analysis.Node) {
	start, end := n.StubStart, n.StubEnd
	if n.Oneway || n.Collocated {
		start, end = n.SkelStart, n.SkelEnd
	}
	if !oracleWindowed(start) || !oracleWindowed(end) {
		return
	}
	raw := probe.WallTime(end.WallStart).Sub(probe.WallTime(start.WallEnd))
	var overhead time.Duration
	for _, c := range n.Children {
		overhead += serialProbeCost(c)
	}
	if !n.Oneway && !n.Collocated {
		overhead += oracleWindow(n.SkelStart) + oracleWindow(n.SkelEnd)
	}
	if raw < 0 || raw-overhead < 0 {
		return
	}
	n.RawLatency, n.Overhead, n.Latency, n.HasLatency = raw, overhead, raw-overhead, true
}

// oracleCPU is the CPU pass as it was: two fresh maps for every node.
func oracleCPU(n *analysis.Node) map[string]time.Duration {
	desc := make(map[string]time.Duration)
	for _, c := range n.Children {
		for k, v := range oracleCPU(c) {
			desc[k] += v
		}
	}
	n.DescCPU = desc
	metered := func(r *probe.Compact) bool { return r != nil && r.CPUArmed }
	if metered(n.SkelStart) && metered(n.SkelEnd) && n.SkelStart.Thread == n.SkelEnd.Thread {
		self := n.SkelEnd.CPUStart - n.SkelStart.CPUEnd
		for _, c := range n.Children {
			if metered(c.StubStart) && metered(c.StubEnd) && c.StubStart.Thread == c.StubEnd.Thread {
				self -= c.StubEnd.CPUEnd - c.StubStart.CPUStart
			}
		}
		n.SelfCPU, n.HasCPU = self, true
	}
	inc := make(map[string]time.Duration, len(desc)+1)
	for k, v := range desc {
		inc[k] = v
	}
	if n.HasCPU {
		inc[n.ServerProcType()] += n.SelfCPU
	}
	n.InclusiveCPU = inc
	return inc
}

// passStore is a generated run with oneway and collocated calls (three
// processes, so a call often stays in its caller's process) and one probe
// aspect armed: latency and CPU exclude each other (probe.ErrAspectConflict).
func passStore(t testing.TB, aspect probe.Aspect, seed int64) *logdb.Store {
	t.Helper()
	sys, err := workload.Generate(workload.Config{
		Calls: 3000, Threads: 6, Processes: 3,
		Components: 12, Interfaces: 8, Methods: 24,
		OnewayPermille: 150, Seed: seed, Aspects: aspect,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys.Store()
}

// annotated reconstructs db afresh and runs the latency and CPU passes under
// the given GOMAXPROCS; procs 0 runs the oracle instead.
func annotated(db *logdb.Store, procs int) *analysis.DSCG {
	g := analysis.Reconstruct(db)
	if procs == 0 {
		g.Walk(oracleLatency)
		for _, t := range g.Trees {
			for _, r := range t.Roots {
				oracleCPU(r)
			}
		}
		return g
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	g.ComputeLatency()
	g.ComputeCPU()
	return g
}

func renderBytes(t *testing.T, g *analysis.DSCG) string {
	t.Helper()
	var buf bytes.Buffer
	if err := render.DSCGText(&buf, g, -1, 0); err != nil {
		t.Fatal(err)
	}
	if err := render.CCSGXML(&buf, analysis.BuildCCSG(g)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func nodesOf(g *analysis.DSCG) []*analysis.Node {
	var out []*analysis.Node
	g.Walk(func(n *analysis.Node) { out = append(out, n) })
	return out
}

// TestPassesMatchOracleAtAnyWidth: the per-tree latency and CPU passes
// annotate every node as the quadratic oracle does, the same under
// GOMAXPROCS 1 and 4, and render byte-identically.
func TestPassesMatchOracleAtAnyWidth(t *testing.T) {
	kinds := map[string]int{}
	for _, aspect := range []probe.Aspect{probe.AspectLatency, probe.AspectCPU} {
		db := passStore(t, aspect, 31)
		want := annotated(db, 0)
		wantNodes, wantText := nodesOf(want), renderBytes(t, want)
		for _, procs := range []int{1, 4} {
			g := annotated(db, procs)
			got := nodesOf(g)
			if len(got) != len(wantNodes) {
				t.Fatalf("aspect %d procs %d: %d nodes, oracle %d", aspect, procs, len(got), len(wantNodes))
			}
			for i, n := range got {
				w := wantNodes[i]
				if n.RawLatency != w.RawLatency || n.Overhead != w.Overhead || n.Latency != w.Latency ||
					n.HasLatency != w.HasLatency || n.SelfCPU != w.SelfCPU || n.HasCPU != w.HasCPU ||
					!maps.Equal(n.DescCPU, w.DescCPU) || !maps.Equal(n.InclusiveCPU, w.InclusiveCPU) {
					t.Fatalf("aspect %d procs %d node %d (%s): got %+v, oracle %+v", aspect, procs, i, n.Op().Operation, *n, *w)
				}
				switch {
				case n.Oneway:
					kinds["oneway"]++
				case n.Collocated:
					kinds["collocated"]++
				}
				if n.HasLatency {
					kinds["latency"]++
				}
				if n.HasCPU {
					kinds["cpu"]++
				}
			}
			if text := renderBytes(t, g); text != wantText {
				t.Fatalf("aspect %d procs %d: rendered DSCG and CCSG differ from the oracle's", aspect, procs)
			}
		}
	}
	for _, k := range []string{"oneway", "collocated", "latency", "cpu"} {
		if kinds[k] == 0 {
			t.Errorf("the generated runs hold no %s node: %v", k, kinds)
		}
	}
}

// TestPropertyLatencyNonNegative: in a generated DSCG, every node the
// latency pass annotates has a latency of at least zero.
func TestPropertyLatencyNonNegative(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g := analysis.Reconstruct(passStore(t, probe.AspectLatency, seed))
		g.ComputeLatency()
		annotated := 0
		g.Walk(func(n *analysis.Node) {
			if n.HasLatency {
				annotated++
				if n.Latency < 0 || n.RawLatency < 0 {
					t.Fatalf("seed %d: %s has latency %v (raw %v)", seed, n.Op().Operation, n.Latency, n.RawLatency)
				}
			}
		})
		if annotated == 0 {
			t.Fatalf("seed %d: no node has latency", seed)
		}
	}
}

// TestComputeCPUAllocFreeWithoutCPUData: on a DSCG with latency only,
// ComputeCPU allocates nothing per node, at one core (AllocsPerRun pins
// GOMAXPROCS to 1) or fanned out over four — there only the goroutines cost.
func TestComputeCPUAllocFreeWithoutCPUData(t *testing.T) {
	g := analysis.Reconstruct(passStore(t, probe.AspectLatency, 7))
	g.ComputeLatency()
	if allocs := testing.AllocsPerRun(20, g.ComputeCPU); allocs > 2 {
		t.Fatalf("ComputeCPU allocated %.0f times over %d nodes at one core", allocs, g.Nodes())
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		g.ComputeCPU()
	}
	runtime.ReadMemStats(&after)
	if allocs := (after.Mallocs - before.Mallocs) / runs; allocs > 4*4 {
		t.Fatalf("ComputeCPU allocated %d times over %d nodes at four cores", allocs, g.Nodes())
	}
	g.Walk(func(n *analysis.Node) {
		if n.DescCPU != nil || n.InclusiveCPU != nil {
			t.Fatalf("%s holds CPU maps with no CPU data", n.Op().Operation)
		}
	})
}

// TestLatencyClockHygiene: a node whose span runs backwards — the wall clock
// stepped back between its probes — or whose probe overhead exceeds its span
// gets no latency, so it enters neither LatencyStats nor an interface's
// digest (nor, on the collector, an SLO burn: it observes only nodes with
// latency).
func TestLatencyClockHygiene(t *testing.T) {
	at := func(us int64) time.Time { return time.Unix(11, 0).Add(time.Duration(us) * time.Microsecond) }
	win := func(s, e int64) *probe.Record {
		return &probe.Record{LatencyArmed: true, WallStart: at(s), WallEnd: at(e)}
	}
	syms := probe.NewSymbols(1)
	node := func(name string, oneway bool, p1, p2, p3, p4 *probe.Record, children ...*analysis.Node) *analysis.Node {
		n := &analysis.Node{Oneway: oneway, Syms: syms, Children: children}
		for _, at := range []struct {
			field **probe.Compact
			r     *probe.Record
		}{{&n.StubStart, p1}, {&n.SkelStart, p2}, {&n.SkelEnd, p3}, {&n.StubEnd, p4}} {
			at.r.Op = probe.OpID{Interface: "I" + name, Operation: name}
			*at.field = new(probe.Compact)
			syms.Table(0).Convert(*at.field, at.r)
		}
		return n
	}
	call := func(name string, p1, p2, p3, p4 *probe.Record, children ...*analysis.Node) *analysis.Node {
		return node(name, false, p1, p2, p3, p4, children...)
	}
	cases := []struct {
		name string
		root *analysis.Node
		want map[string]bool // HasLatency per operation
	}{{
		name: "consistent",
		root: call("F", win(0, 1), win(10, 11), win(20, 21), win(30, 31)),
		want: map[string]bool{"F": true},
	}, {
		name: "clock stepped back across the stub span",
		root: call("F", win(100, 101), win(10, 11), win(20, 21), win(30, 31)),
		want: map[string]bool{"F": false},
	}, {
		name: "clock stepped back across a oneway callee",
		root: node("F", true, win(0, 1), win(50, 51), win(40, 41), win(2, 3)),
		want: map[string]bool{"F": false},
	}, {
		name: "overhead greater than the span",
		// F's raw span is 30 − 1 = 29µs; G's four 10µs windows and F's own
		// two 1µs windows make O_F = 42µs.
		root: call("F", win(0, 1), win(2, 3), win(27, 28), win(30, 31),
			call("G", win(3, 13), win(13, 23), win(23, 33), win(33, 43))),
		want: map[string]bool{"F": false, "G": true},
	}}
	for _, c := range cases {
		g := &analysis.DSCG{Trees: []*analysis.Tree{{Roots: []*analysis.Node{c.root}}}}
		g.ComputeLatency()
		inStats := map[string]bool{}
		for _, s := range g.LatencyStats() {
			inStats[s.Op.Operation] = true
		}
		inDigest := map[string]bool{}
		for _, s := range analysis.InterfaceStats(g, 1) {
			inDigest[s.Interface[1:]] = s.Latency.Count() > 0
		}
		g.Walk(func(n *analysis.Node) {
			op := n.Op().Operation
			if n.HasLatency != c.want[op] {
				t.Errorf("%s: %s HasLatency %v, want %v (raw %v, O %v)", c.name, op, n.HasLatency, c.want[op], n.RawLatency, n.Overhead)
			}
			if n.HasLatency && n.Latency < 0 {
				t.Errorf("%s: %s latency %v", c.name, op, n.Latency)
			}
			if inStats[op] != c.want[op] || inDigest[op] != c.want[op] {
				t.Errorf("%s: %s in LatencyStats %v, in its digest %v, want %v", c.name, op, inStats[op], inDigest[op], c.want[op])
			}
		})
	}
}

// An armed probe record can cross the wire with no wall time, one or both
// of its times being the frame's "none". Such a record has no latency
// window: it adds nothing to its caller's overhead, and the node it starts
// or ends gets no latency — not time.Time.Sub's saturated 2 562 047 h.
func TestArmedRecordWithoutWallTimeHasNoLatency(t *testing.T) {
	at := func(us int64) time.Time { return time.Unix(11, 0).Add(time.Duration(us) * time.Microsecond) }
	chain := [16]byte{7}
	f := probe.OpID{Interface: "IF", Operation: "F"}
	g := probe.OpID{Interface: "IG", Operation: "G"}
	call := func() []probe.Record {
		var recs []probe.Record
		add := func(op probe.OpID, e ftl.Event, start, end int64) {
			recs = append(recs, probe.Record{
				Kind: probe.KindEvent, Process: "p", Thread: 1, Op: op, LatencyArmed: true,
				Chain: chain, Event: e, Seq: uint64(len(recs) + 1), WallStart: at(start), WallEnd: at(end),
			})
		}
		add(f, ftl.StubStart, 0, 1)
		add(f, ftl.SkelStart, 2, 3)
		add(g, ftl.StubStart, 4, 5)
		add(g, ftl.SkelStart, 6, 7)
		add(g, ftl.SkelEnd, 20, 21)
		add(g, ftl.StubEnd, 22, 23)
		add(f, ftl.SkelEnd, 30, 31)
		add(f, ftl.StubEnd, 32, 33)
		return recs
	}
	for _, c := range []struct {
		name  string
		strip func(recs []probe.Record)
		want  map[string]bool // HasLatency per operation
	}{
		{"F's stub_start has no wall time", func(r []probe.Record) { r[0].WallStart, r[0].WallEnd = time.Time{}, time.Time{} }, map[string]bool{"F": false, "G": true}},
		{"G's stub_start has no wall time", func(r []probe.Record) { r[2].WallStart, r[2].WallEnd = time.Time{}, time.Time{} }, map[string]bool{"F": true, "G": false}},
		{"F's skel_start has no wall start", func(r []probe.Record) { r[1].WallStart = time.Time{} }, map[string]bool{"F": true, "G": true}},
		{"G's stub_end has no wall end", func(r []probe.Record) { r[5].WallEnd = time.Time{} }, map[string]bool{"F": true, "G": false}},
	} {
		recs := call()
		c.strip(recs)
		var enc probe.FrameEncoder
		var dec probe.FrameDecoder
		shipped, err := dec.Decode(enc.Encode(recs))
		if err != nil {
			t.Fatal(err)
		}
		p := analysis.ParseChainEvents(chain, shipped)
		if !p.Clean() || len(p.Roots) != 1 {
			t.Fatalf("%s: %d roots, clean %v", c.name, len(p.Roots), p.Clean())
		}
		analysis.ComputeLatencySubtree(p.Roots[0])
		p.Roots[0].Walk(func(n *analysis.Node) {
			op := n.Op().Operation
			if n.HasLatency != c.want[op] || n.Latency > time.Second || n.RawLatency > time.Second || n.Overhead > time.Second {
				t.Errorf("%s: %s HasLatency %v (want %v), latency %v, raw %v, overhead %v", c.name, op, n.HasLatency, c.want[op], n.Latency, n.RawLatency, n.Overhead)
			}
		})
	}
}
