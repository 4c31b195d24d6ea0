package streamrecon

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"causeway/internal/analysis"
	"causeway/internal/ftl"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/topology"
	"causeway/internal/uuid"
)

// randomTreeRunner drives a random call tree through real probes into BOTH
// the online monitor and a memory sink for offline reconstruction.
type randomTreeRunner struct {
	p *probe.Probes
	r *rand.Rand
	n int
}

func (rr *randomTreeRunner) call(depth int) {
	rr.n++
	name := fmt.Sprintf("op%d", rr.n)
	op := probe.OpID{Interface: "I", Operation: name, Object: "o"}
	body := func() {
		if depth < 3 {
			for i := 0; i < rr.r.Intn(3); i++ {
				rr.call(depth + 1)
			}
		}
	}
	switch rr.r.Intn(3) {
	case 0: // collocated
		ctx := rr.p.CollocStart(op)
		body()
		rr.p.CollocEnd(ctx)
	case 1: // oneway, awaited for quiescence
		ctx := rr.p.StubStart(op, true)
		done := make(chan struct{})
		wire := ctx.Wire
		go func() {
			defer close(done)
			sctx := rr.p.SkelStart(op, wire, true)
			body()
			rr.p.SkelEnd(sctx)
			rr.p.Tunnel().Clear()
		}()
		rr.p.StubEnd(ctx, ftl.FTL{})
		<-done
	default: // sync remote
		ctx := rr.p.StubStart(op, false)
		reply := make(chan ftl.FTL, 1)
		wire := ctx.Wire
		go func() {
			sctx := rr.p.SkelStart(op, wire, false)
			body()
			reply <- rr.p.SkelEnd(sctx)
		}()
		rr.p.StubEnd(ctx, <-reply)
	}
}

// shapeOf serializes a node subtree for comparison.
func shapeOf(n *analysis.Node) string {
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
		s += shapeOf(c)
	}
	return s + ")"
}

// TestPropertyOnlineMatchesOffline: for random runs, the set of subtree
// shapes the online monitor emits equals the offline DSCG's — modulo the
// one structural difference that online emits oneway callee sides as their
// own roots (linked by parent chain) while offline stitches them inline.
// Then the same run is damaged the ways deployments damage one (perturb:
// lost records per event class, arrival skew, retry-stride gaps, the
// deadline tie, resent frames), and the flushed monitor must agree with
// ParseChainEvents node for node on every chain of every draw.
func TestPropertyOnlineMatchesOffline(t *testing.T) {
	fn := func(seed int64) bool {
		var mu sync.Mutex
		var onlineShapes []string
		monitor := NewMonitor(Config{OnRoot: func(ev RootEvent) {
			mu.Lock()
			defer mu.Unlock()
			// Skip oneway stub-side roots (no skeleton pair on this chain):
			// offline merges them with their callee side.
			if ev.Root.Oneway && ev.Root.SkelStart == nil {
				return
			}
			onlineShapes = append(onlineShapes, shapeOf(ev.Root))
		}})
		mem := &probe.MemorySink{}
		p, err := probe.New(probe.Config{
			Process: topology.Process{ID: "p", Processor: topology.Processor{ID: "c", Type: "x86"}},
			Sink:    probe.TeeSink{mem, monitor},
			Chains:  &uuid.SequentialGenerator{Seed: uint64(seed)},
		})
		if err != nil {
			t.Fatal(err)
		}
		rr := &randomTreeRunner{p: p, r: rand.New(rand.NewSource(seed))}
		for i := 0; i < 3; i++ {
			rr.call(0)
			p.Tunnel().Clear()
		}

		clean := mem.Snapshot()
		checkDriversAgree(t, fmt.Sprintf("seed %d, undamaged", seed), clean)
		damage := rand.New(rand.NewSource(seed))
		for draw := 0; draw < 16; draw++ {
			checkDriversAgree(t, fmt.Sprintf("seed %d, damage draw %d", seed, draw), perturb(damage, clean))
		}

		db := logdb.NewStore()
		db.Insert(clean...)
		g := analysis.Reconstruct(db)
		if len(g.Anomalies) != 0 {
			t.Logf("seed %d offline anomalies: %v", seed, g.Anomalies)
			return false
		}
		// Offline: project the stitched DSCG into the shapes the online
		// monitor emits. Online's per-chain view renders an embedded oneway
		// node stub-side only (bare leaf) because its callee subtree lives
		// on the child chain, which online emits as a separate root.
		var onlineView func(n *analysis.Node, asCalleeRoot bool) string
		onlineView = func(n *analysis.Node, asCalleeRoot bool) string {
			s := n.Op().Operation
			if n.Oneway {
				s += "!"
			}
			if n.Collocated {
				s += "*"
			}
			if n.Oneway && !asCalleeRoot {
				return s // stub side only
			}
			if len(n.Children) == 0 {
				return s
			}
			s += "("
			for i, c := range n.Children {
				if i > 0 {
					s += " "
				}
				s += onlineView(c, false)
			}
			return s + ")"
		}
		var offlineShapes []string
		var emitLike func(n *analysis.Node, topLevel bool)
		emitLike = func(n *analysis.Node, topLevel bool) {
			if topLevel && !n.Oneway {
				offlineShapes = append(offlineShapes, onlineView(n, false))
			}
			if n.Oneway && n.SkelStart != nil {
				// Online sees the callee side as a root of the child chain.
				offlineShapes = append(offlineShapes, onlineView(n, true))
			}
			for _, c := range n.Children {
				emitLike(c, false)
			}
		}
		for _, tr := range g.Trees {
			for _, r := range tr.Roots {
				emitLike(r, true)
			}
		}

		mu.Lock()
		defer mu.Unlock()
		sort.Strings(onlineShapes)
		sort.Strings(offlineShapes)
		if len(onlineShapes) != len(offlineShapes) {
			t.Logf("seed %d: online %v vs offline %v", seed, onlineShapes, offlineShapes)
			return false
		}
		for i := range onlineShapes {
			if onlineShapes[i] != offlineShapes[i] {
				t.Logf("seed %d: online %v vs offline %v", seed, onlineShapes, offlineShapes)
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
