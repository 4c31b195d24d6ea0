package analysis

import (
	"time"

	"causeway/internal/probe"
)

// ComputeCPU annotates every node with exclusive (self) and inclusive CPU
// consumption, implementing §3.2's three phases:
//
//  1. Self CPU of each invocation:
//     SC_F = (P_{F,3,start} − P_{F,2,end}) − Σ_{i=1..L} (P_{i,4,end} − P_{i,1,start})
//     where the first difference reads the per-thread CPU counter of F's
//     dispatch thread across the implementation body, and each subtracted
//     term reads the caller-thread CPU spanned by immediate child i's
//     stub-side probes (excluding both the child's marshalling cost and —
//     for collocated children, which execute on the same thread — the
//     child's own execution).
//  2. Descendent CPU, propagated along the caller/callee relationship:
//     DC_F = Σ_{f ∈ immediate children} (SC_f + DC_f)
//     kept as a vector over processor types (<C1..CM>), since children may
//     execute on different processor kinds.
//  3. The CCSG synthesis consuming these values lives in ccsg.go.
//
// All differences are same-thread by construction: probes 2 and 3 run on
// the dispatch thread; a child's probes 1 and 4 run on F's thread.
//
// Trees are annotated on up to GOMAXPROCS goroutines. A subtree with no
// metered node keeps nil DescCPU/InclusiveCPU maps, which read as empty, so
// a run without the CPU aspect allocates nothing here.
func (g *DSCG) ComputeCPU() {
	g.forEachTree(func(t *Tree) {
		for _, r := range t.Roots {
			cpuPass(r)
		}
	})
}

// cpuPass annotates the subtree rooted at n post-order, so DC is summed
// from the children's results, and returns n's inclusive CPU: nil when no
// node in the subtree is metered. Every node owns its maps.
func cpuPass(n *Node) map[string]time.Duration {
	var desc map[string]time.Duration
	for _, c := range n.Children {
		inc := cpuPass(c)
		if inc == nil {
			continue
		}
		if desc == nil {
			desc = make(map[string]time.Duration, len(inc))
		}
		for k, v := range inc {
			desc[k] += v
		}
	}
	n.DescCPU = desc

	if metered(n.SkelStart) && metered(n.SkelEnd) &&
		n.SkelStart.Thread == n.SkelEnd.Thread {
		self := n.SkelEnd.CPUStart - n.SkelStart.CPUEnd
		for _, c := range n.Children {
			self -= childStubSpanCPU(c)
		}
		n.SelfCPU = self
		n.HasCPU = true
	}
	if desc == nil && !n.HasCPU {
		n.InclusiveCPU = nil
		return nil
	}

	// Inclusive = self (charged to this node's processor type) + descendents.
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

// childStubSpanCPU returns (P_{i,4,end} − P_{i,1,start}) for child i: the
// caller-thread CPU consumed across the child's whole stub-side span.
// Oneway children run their callee elsewhere, so this is just dispatch
// cost; collocated children execute on the caller thread, so the span
// correctly covers their execution too.
func childStubSpanCPU(c *Node) time.Duration {
	if !metered(c.StubStart) || !metered(c.StubEnd) ||
		c.StubStart.Thread != c.StubEnd.Thread {
		return 0
	}
	return c.StubEnd.CPUEnd - c.StubStart.CPUStart
}

func metered(r *probe.Compact) bool {
	return r != nil && r.CPUArmed
}

// TotalCPU sums inclusive CPU over the graph's roots per processor type —
// with the virtual meter this equals the total CPU charged anywhere in the
// run (invariant I4).
func (g *DSCG) TotalCPU() map[string]time.Duration {
	total := make(map[string]time.Duration)
	for _, t := range g.Trees {
		for _, r := range t.Roots {
			for k, v := range r.InclusiveCPU {
				total[k] += v
			}
		}
	}
	return total
}
