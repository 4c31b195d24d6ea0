// Package baseline implements the comparator systems the paper positions
// itself against (§5), so the contribution's deltas are measurable rather
// than asserted:
//
//   - gprof-style depth-1 profiles (Graham et al. [3]): caller/callee arcs
//     only, no call paths — shown unable to distinguish workloads the DSCG
//     separates.
//   - OVATION-style interceptor monitoring [15]: per-call timing anchors
//     with no causality capture — shown unable to correlate concurrent
//     invocations across processes.
//   - Trace-Object propagation (Universal Delegator [2], BBN RSS [21]): a
//     trace record that concatenates an entry per hop — shown to grow
//     linearly with chain depth where the FTL stays constant.
package baseline

import (
	"fmt"
	"sort"
	"strings"

	"causeway/internal/analysis"
	"causeway/internal/probe"
)

// Arc is one caller→callee edge with call-depth 1, the only relationship
// GPROF retains ("maintains the relationship with call-depth of 1", §3.1).
type Arc struct {
	Caller probe.OpID // zero OpID means a root (spontaneous) call
	Callee probe.OpID
}

// String renders "caller -> callee".
func (a Arc) String() string {
	caller := a.Caller.Operation
	if caller == "" {
		caller = "<root>"
	}
	return fmt.Sprintf("%s -> %s", caller, a.Callee.Operation)
}

// GprofProfile is a flat arc-count profile.
type GprofProfile struct {
	Counts map[Arc]int
}

// BuildGprofProfile collapses a DSCG to the depth-1 arc information a
// gprof-style profiler would have collected. Everything beyond the
// immediate caller — the full call path — is discarded, which is exactly
// the information loss the DSCG avoids.
func BuildGprofProfile(g *analysis.DSCG) *GprofProfile {
	p := &GprofProfile{Counts: make(map[Arc]int)}
	var walk func(parent probe.OpID, n *analysis.Node)
	walk = func(parent probe.OpID, n *analysis.Node) {
		p.Counts[Arc{Caller: parent, Callee: n.Op()}]++
		for _, c := range n.Children {
			walk(n.Op(), c)
		}
	}
	for _, t := range g.Trees {
		for _, r := range t.Roots {
			walk(probe.OpID{}, r)
		}
	}
	return p
}

// Fingerprint renders the profile canonically so two profiles can be
// compared for equality.
func (p *GprofProfile) Fingerprint() string {
	lines := make([]string, 0, len(p.Counts))
	for arc, n := range p.Counts {
		lines = append(lines, fmt.Sprintf("%s x%d", arc, n))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TreeShapes serializes every chain tree's complete structure — the
// information the DSCG preserves end to end. Two runs with equal gprof
// fingerprints but different TreeShapes demonstrate the depth-1 loss.
func TreeShapes(g *analysis.DSCG) []string {
	var out []string
	var render func(n *analysis.Node) string
	render = func(n *analysis.Node) string {
		s := n.Op().Operation
		if len(n.Children) == 0 {
			return s
		}
		s += "("
		for i, c := range n.Children {
			if i > 0 {
				s += " "
			}
			s += render(c)
		}
		return s + ")"
	}
	for _, t := range g.Trees {
		for _, r := range t.Roots {
			out = append(out, render(r))
		}
	}
	sort.Strings(out)
	return out
}

// CallPaths enumerates the distinct root-to-leaf call paths of a DSCG —
// the information a call-path profile (and the DSCG) preserves but a
// depth-1 profile cannot reconstruct.
func CallPaths(g *analysis.DSCG) []string {
	var out []string
	var walk func(prefix string, n *analysis.Node)
	walk = func(prefix string, n *analysis.Node) {
		path := prefix + "/" + n.Op().Operation
		if len(n.Children) == 0 {
			out = append(out, path)
			return
		}
		for _, c := range n.Children {
			walk(path, c)
		}
	}
	for _, t := range g.Trees {
		for _, r := range t.Roots {
			walk("", r)
		}
	}
	sort.Strings(out)
	return out
}
