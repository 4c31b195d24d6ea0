package analysis

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"causeway/internal/ftl"
	"causeway/internal/probe"
	"causeway/internal/uuid"
	"causeway/internal/workload"
)

// renderParsed spells out everything a parse decided: the trees with the
// records each node was given, what was classified broken, the anomalies.
func renderParsed(p *ParsedChain) string {
	var sb strings.Builder
	seq := func(r *probe.Compact) string {
		if r == nil {
			return "-"
		}
		return fmt.Sprint(r.Seq)
	}
	for _, root := range p.Roots {
		root.Walk(func(n *Node) {
			fmt.Fprintf(&sb, "%s oneway=%v colloc=%v children=%d records=%s/%s/%s/%s broken=%v %q latency=%v/%v\n",
				n.Op().Operation, n.Oneway, n.Collocated, len(n.Children),
				seq(n.StubStart), seq(n.SkelStart), seq(n.SkelEnd), seq(n.StubEnd),
				n.Broken, n.BrokenReason, n.HasLatency, n.Latency)
		})
		sb.WriteString("--\n")
	}
	fmt.Fprintf(&sb, "empty=%v broken=%v anomalies=%v", p.Empty, p.Broken, p.Anomalies)
	return sb.String()
}

// A machine that recycles its nodes from chain to chain through a pool
// parses every chain as a fresh machine does, whatever the previous chain
// left in the nodes: healthy chains, every single-record loss, shuffles,
// and chains both longer and shorter than the one before.
func TestRecycledMachineParsesAsAFreshOne(t *testing.T) {
	var healthy []probe.Record
	for _, r := range fullLog() {
		if r.Kind == probe.KindEvent && r.Chain == (uuid.UUID{0: 0xa}) {
			healthy = append(healthy, r)
		}
	}
	chains := [][]probe.Record{healthy, nil}
	for i := range healthy {
		chains = append(chains, append(append([]probe.Record(nil), healthy[:i]...), healthy[i+1:]...))
	}
	for _, ev := range []ftl.Event{ftl.StubStart, ftl.SkelStart, ftl.SkelEnd, ftl.StubEnd} {
		chains = append(chains, without(healthy, ev))
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		c := append([]probe.Record(nil), healthy[:1+r.Intn(len(healthy))]...)
		r.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
		chains = append(chains, c, healthy)
	}

	pool := &NodePool{}
	syms := probe.NewSymbols(1)
	m := ChainMachine{Pool: pool, Syms: syms}
	var out ParsedChain
	for i, events := range chains {
		fresh := ParseChainEvents(uuid.UUID{0: 0xa}, events)
		for _, root := range fresh.Roots {
			ComputeLatencySubtree(root)
		}

		m.Recycle()
		out.Roots, out.Broken, out.Anomalies = out.Roots[:0], out.Broken[:0], out.Anomalies[:0]
		out.Empty = len(events) == 0
		compacts := syms.Table(0).AppendCompacts(nil, events)
		for j := range compacts {
			m.Apply(&compacts[j], &out)
		}
		m.Finish(&out)
		for _, root := range out.Roots {
			ComputeLatencySubtree(root)
		}
		if got, want := renderParsed(&out), renderParsed(&fresh); got != want {
			t.Fatalf("chain %d: recycled machine\n%s\nfresh machine\n%s", i, got, want)
		}
		if out.Clean() != fresh.Clean() {
			t.Fatalf("chain %d: Clean %v, fresh %v", i, out.Clean(), fresh.Clean())
		}
		for _, root := range out.Roots {
			pool.Put(root)
		}
	}
	if len(pool.free) > len(healthy) {
		t.Fatalf("pool holds %d nodes after chains of at most %d records", len(pool.free), len(healthy))
	}

}

// A ChainParser, reusing its records and symbols from chain to chain,
// parses each chain as ParseChainEvents does, and allocates nothing past
// what the machine does over records already made compact.
func TestChainParserParsesAsParseChainEvents(t *testing.T) {
	var healthy []probe.Record
	for _, r := range fullLog() {
		if r.Kind == probe.KindEvent && r.Chain == (uuid.UUID{0: 0xa}) {
			healthy = append(healthy, r)
		}
	}
	renamed := append([]probe.Record(nil), healthy...)
	for i := range renamed {
		renamed[i].Process += "-renamed"
		renamed[i].Op.Operation += "X"
		renamed[i].Semantics = fmt.Sprintf("args %d", i)
	}
	chains := [][]probe.Record{healthy, nil, renamed, healthy}
	for i := range healthy {
		chains = append(chains, append(append([]probe.Record(nil), healthy[:i]...), healthy[i+1:]...), renamed)
	}

	var p ChainParser
	for i, events := range chains {
		fresh := ParseChainEvents(uuid.UUID{0: 0xa}, events)
		got := p.Parse(uuid.UUID{0: 0xa}, events)
		if a, b := renderParsed(&got), renderParsed(&fresh); a != b {
			t.Fatalf("chain %d: parser\n%s\nParseChainEvents\n%s", i, a, b)
		}
		for j, root := range got.Roots {
			want := fresh.Roots[j]
			if root.ClientProcess() != want.ClientProcess() || root.ServerProcess() != want.ServerProcess() || root.ArgsSemantics() != want.ArgsSemantics() {
				t.Fatalf("chain %d root %d: processes %q→%q args %q, want %q→%q args %q", i, j,
					root.ClientProcess(), root.ServerProcess(), root.ArgsSemantics(), want.ClientProcess(), want.ServerProcess(), want.ArgsSemantics())
			}
		}
	}

	syms := probe.NewSymbols(1)
	compacts := syms.Table(0).AppendCompacts(nil, healthy)
	machine := testing.AllocsPerRun(100, func() { parseCompacts(uuid.UUID{0: 0xa}, compacts, syms) })
	parser := testing.AllocsPerRun(100, func() { p.Parse(uuid.UUID{0: 0xa}, healthy) })
	if parser > machine {
		t.Fatalf("ChainParser.Parse allocates %v a chain, the machine alone %v", parser, machine)
	}
}

// InterfaceStats keys a node by the interface id and part the machine
// copied into it when it opened the node; a node built otherwise, with no
// id copied, is keyed through its record. Over a parallel reconstruction,
// whose workers intern in tables of their own, both give the same stats,
// at any width, and count each interface's calls as its name does.
func TestInterfaceStatsKeysByCopiedID(t *testing.T) {
	sys, err := workload.Generate(workload.Config{
		Calls: 400, Threads: 4, Processes: 3, Components: 8, Interfaces: 7, Methods: 20,
		OnewayPermille: 100, Seed: 5, Aspects: probe.AspectLatency,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := ReconstructParallel(sys.Store(), 3)
	g.ComputeLatency()
	want := InterfaceStats(g, 1)
	if len(want) < 2 {
		t.Fatalf("%d interfaces ranked", len(want))
	}
	calls := map[string]int{}
	copied := 0
	for _, tr := range g.Trees {
		for _, r := range tr.Roots {
			r.Walk(func(n *Node) {
				calls[n.Op().Interface]++
				if n.ifaceID != 0 {
					copied++
				}
				n.ifaceID, n.ifacePart = 0, 0
			})
		}
	}
	for _, s := range want {
		if s.Calls != calls[s.Interface] {
			t.Fatalf("%s: %d calls, its name counts %d", s.Interface, s.Calls, calls[s.Interface])
		}
	}
	if copied == 0 {
		t.Fatal("the machine copied no interface id")
	}
	for _, workers := range []int{1, 3} {
		if got := InterfaceStats(g, workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d workers over nodes keyed through their records: %+v, want %+v", workers, got, want)
		}
	}
}
