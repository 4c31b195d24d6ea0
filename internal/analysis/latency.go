package analysis

import (
	"math"
	"sort"
	"time"

	"causeway/internal/probe"
)

// ComputeLatency annotates every node with end-to-end timing latency,
// implementing §3.2:
//
//	L(F) = (P_{F,4,start} − P_{F,1,end}) − O_F   synchronous / oneway stub side
//	L(F) = (P_{F,3,start} − P_{F,2,end}) − O_F   collocated / oneway skel side
//
// O_F is the causality-capture overhead: the probe-activation windows spent
// inside F's measured span. The paper sums windows over "the total number
// of child functions" with R(i)={1,2,3,4} for synchronous children and
// {1,4} for oneway children; we take "total" to mean all descendants that
// execute serially inside F's span (a oneway child contributes only its
// stub-side windows — its callee runs on another thread and does not extend
// F's span), plus, for a remote synchronous F, F's own skeleton-side
// windows (probes 2 and 3), which also lie inside the P1–P4 span.
// Collocated invocations fire degenerated probes whose two events share a
// window, so each contributes its two distinct windows once.
//
// It is one post-order pass per tree: each node is annotated from the
// serial cost its children return, so the pass is linear in the nodes. The
// trees are disjoint, so they are annotated on up to GOMAXPROCS goroutines.
// A node whose span or compensated latency would be negative — the wall
// clock stepped back between its probes — is left without latency.
func (g *DSCG) ComputeLatency() {
	g.forEachTree(func(t *Tree) {
		for _, r := range t.Roots {
			latencyPass(r)
		}
	})
}

// ComputeLatencySubtree annotates latency metrics on root and all its
// descendants without requiring a full DSCG — the collector's chain table
// uses it on each completed top-level invocation.
func ComputeLatencySubtree(root *Node) { latencyPass(root) }

// latencyPass annotates the subtree rooted at n and returns the probe-window
// time it contributes to its caller's span.
func latencyPass(n *Node) time.Duration {
	var children time.Duration
	for _, c := range n.Children {
		children += latencyPass(c)
	}
	annotateLatency(n, children)
	switch {
	case n.Oneway:
		// R = {1,4}: only the stub-side windows run in the caller's thread.
		return window(n.StubStart) + window(n.StubEnd)
	case n.Collocated:
		// Degenerated probes: the start pair shares one activation whose
		// full extent is the second record's window (same WallStart, later
		// WallEnd), and likewise for the end pair. Count each activation
		// once, by its widest record.
		return window(n.SkelStart) + window(n.StubEnd) + children
	default:
		// R = {1,2,3,4}.
		return window(n.StubStart) + window(n.SkelStart) + window(n.SkelEnd) + window(n.StubEnd) + children
	}
}

// annotateLatency sets n's latency from its span and overhead, children
// being the serial probe cost of its children.
func annotateLatency(n *Node, children time.Duration) {
	start, end := n.StubStart, n.StubEnd
	overhead := children
	if n.Oneway || n.Collocated {
		// Skel-side latency is the primary metric: the callee's execution.
		start, end = n.SkelStart, n.SkelEnd
	} else {
		// Remote synchronous: own skeleton-side windows lie in the span.
		overhead += window(n.SkelStart) + window(n.SkelEnd)
	}
	if !windowed(start) || !windowed(end) {
		return
	}
	raw := since(end.WallStart, start.WallEnd)
	if raw < 0 || raw-overhead < 0 {
		return
	}
	n.RawLatency = raw
	n.Overhead = overhead
	n.Latency = raw - overhead
	n.HasLatency = true
}

// windowed reports a record whose latency window is known: armed, with
// both of its wall times. An armed record can cross the wire without them.
func windowed(r *probe.Compact) bool {
	return r != nil && r.LatencyArmed && r.WallStart != probe.NoWallTime && r.WallEnd != probe.NoWallTime
}

func window(r *probe.Compact) time.Duration {
	if !windowed(r) {
		return 0
	}
	return since(r.WallEnd, r.WallStart)
}

// since is end − start, two wall times in Unix nanoseconds, saturated at
// the extremes as time.Time.Sub saturates.
func since(end, start int64) time.Duration {
	d := end - start
	switch {
	case start < 0 && d < end:
		return math.MaxInt64
	case start > 0 && d > end:
		return math.MinInt64
	}
	return time.Duration(d)
}

// LatencyStat aggregates latency over the invocations of one operation,
// the "certain statistical format" §3.2 mentions alongside per-node DSCG
// annotation.
type LatencyStat struct {
	Op    probe.OpID
	Count int
	Min   time.Duration
	Max   time.Duration
	Mean  time.Duration
	Total time.Duration
}

// LatencyStats aggregates per-operation latency over the whole graph,
// sorted by descending total latency (the usual hot-spot view).
func (g *DSCG) LatencyStats() []LatencyStat {
	byOp := make(map[probe.OpID]*LatencyStat)
	g.Walk(func(n *Node) {
		if !n.HasLatency {
			return
		}
		op := n.Op()
		s, ok := byOp[op]
		if !ok {
			s = &LatencyStat{Op: op, Min: n.Latency, Max: n.Latency}
			byOp[op] = s
		}
		s.Count++
		s.Total += n.Latency
		if n.Latency < s.Min {
			s.Min = n.Latency
		}
		if n.Latency > s.Max {
			s.Max = n.Latency
		}
	})
	out := make([]LatencyStat, 0, len(byOp))
	for _, s := range byOp {
		s.Mean = s.Total / time.Duration(s.Count)
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return opLess(out[i].Op, out[j].Op)
	})
	return out
}

func opLess(a, b probe.OpID) bool {
	if a.Interface != b.Interface {
		return a.Interface < b.Interface
	}
	if a.Operation != b.Operation {
		return a.Operation < b.Operation
	}
	return a.Object < b.Object
}
