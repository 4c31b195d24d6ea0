package analysis

import (
	"sort"
	"time"
)

// Interaction is one component-to-component edge of the dynamic system
// topology: the DSCG "exhibits dynamic system execution in terms of
// component object interaction" (§3.1), and this is that view collapsed
// from invocation trees to component edges.
type Interaction struct {
	// Caller is the invoking component ("<client>" for top-level calls
	// issued outside any component implementation).
	Caller string
	// Callee is the invoked component.
	Callee string
	// Calls counts invocations along this edge.
	Calls int
	// Oneway counts the asynchronous subset.
	Oneway int
	// CrossProcess counts invocations whose caller and callee sides ran in
	// different logical processes.
	CrossProcess int
	// TotalLatency sums compensated latency over the edge's invocations
	// that carried latency data.
	TotalLatency time.Duration
	// Latencies counts the invocations contributing to TotalLatency.
	Latencies int
}

// ClientComponent is the caller label for top-level invocations.
const ClientComponent = "<client>"

// Interactions collapses the DSCG into its component-interaction edges,
// sorted by descending call count (ties by caller, then callee).
func (g *DSCG) Interactions() []Interaction {
	type key struct{ caller, callee string }
	edges := make(map[key]*Interaction)
	var walk func(callerComp string, n *Node)
	walk = func(callerComp string, n *Node) {
		k := key{caller: callerComp, callee: n.Op().Component}
		e, ok := edges[k]
		if !ok {
			e = &Interaction{Caller: k.caller, Callee: k.callee}
			edges[k] = e
		}
		e.Calls++
		if n.Oneway {
			e.Oneway++
		}
		if cp, sp := n.ClientProcess(), n.ServerProcess(); cp != "" && sp != "" && cp != sp {
			e.CrossProcess++
		}
		if n.HasLatency {
			e.TotalLatency += n.Latency
			e.Latencies++
		}
		for _, c := range n.Children {
			walk(k.callee, c)
		}
	}
	for _, t := range g.Trees {
		for _, r := range t.Roots {
			walk(ClientComponent, r)
		}
	}
	out := make([]Interaction, 0, len(edges))
	for _, e := range edges {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Calls != out[j].Calls {
			return out[i].Calls > out[j].Calls
		}
		if out[i].Caller != out[j].Caller {
			return out[i].Caller < out[j].Caller
		}
		return out[i].Callee < out[j].Callee
	})
	return out
}

// MeanLatency returns the edge's mean compensated latency, or zero when no
// invocation carried latency data.
func (e Interaction) MeanLatency() time.Duration {
	if e.Latencies == 0 {
		return 0
	}
	return e.TotalLatency / time.Duration(e.Latencies)
}
