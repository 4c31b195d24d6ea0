package analysis

import (
	"sort"
	"time"

	"causeway/internal/probe"
)

// CCSGNode is one node of the CPU Consumption Summarization Graph
// (§3.2 phase 3, Figure 6): invocations of the same interface method on the
// same object, merged along the call hierarchy (call-path grouping), with
// their self and descendent CPU summed.
type CCSGNode struct {
	// Interface and Operation name the method; Object is "the universal
	// identifier of the object" (Figure 6: ObjectID).
	Interface string
	Operation string
	Object    string
	Component string
	// InvocationTimes is the "number of times the function has been
	// invoked" at this call-path position.
	InvocationTimes int
	// Instances lists the merged invocation instances
	// (IncludedFunctionInstances in Figure 6): per-instance self CPU.
	Instances []CCSGInstance
	// SelfCPU is the summed exclusive CPU of the merged instances.
	SelfCPU time.Duration
	// DescCPU is the summed descendent CPU, per processor type.
	DescCPU map[string]time.Duration
	// Children are the call-path children, deterministically ordered.
	Children []*CCSGNode

	childIndex map[ccsgKey]*CCSGNode // merge index, build-time only
}

// CCSGInstance describes one merged invocation instance.
type CCSGInstance struct {
	Chain   string // short chain id
	Seq     uint64 // stub/skel start seq, locating the instance in the chain
	SelfCPU time.Duration
}

// CCSG is the CPU Consumption Summarization Graph.
type CCSG struct {
	Roots []*CCSGNode
	// ProcessorTypes is the vector axis used by DescCPU maps.
	ProcessorTypes []string
}

type ccsgKey struct {
	iface, op, object string
}

// BuildCCSG synthesizes the CCSG from a DSCG whose CPU metrics were
// computed (ComputeCPU). DSCG nodes sharing a call path — the same
// (interface, operation, object) under the same merged parent — collapse
// into one CCSG node, "structured following the call hierarchy" (§4).
func BuildCCSG(g *DSCG) *CCSG {
	c := &CCSG{}
	typeSet := map[string]bool{}
	rootIndex := make(map[ccsgKey]*CCSGNode)
	for _, t := range g.Trees {
		for _, r := range t.Roots {
			mergeCCSG(&c.Roots, rootIndex, r, typeSet)
		}
	}
	sortCCSG(c.Roots)
	for ty := range typeSet {
		c.ProcessorTypes = append(c.ProcessorTypes, ty)
	}
	sort.Strings(c.ProcessorTypes)
	return c
}

func mergeCCSG(siblings *[]*CCSGNode, index map[ccsgKey]*CCSGNode, n *Node, typeSet map[string]bool) {
	op := n.Op()
	key := ccsgKey{op.Interface, op.Operation, op.Object}
	node, ok := index[key]
	if !ok {
		node = &CCSGNode{
			Interface: op.Interface,
			Operation: op.Operation,
			Object:    op.Object,
			Component: op.Component,
			DescCPU:   make(map[string]time.Duration),
		}
		node.childIndex = make(map[ccsgKey]*CCSGNode)
		index[key] = node
		*siblings = append(*siblings, node)
	}
	node.InvocationTimes++
	seq := uint64(0)
	if n.StubStart != nil {
		seq = n.StubStart.Seq
	} else if n.SkelStart != nil {
		seq = n.SkelStart.Seq
	}
	inst := CCSGInstance{Chain: n.Chain.Short(), Seq: seq}
	if n.HasCPU {
		inst.SelfCPU = n.SelfCPU
		node.SelfCPU += n.SelfCPU
		typeSet[n.ServerProcType()] = true
	}
	node.Instances = append(node.Instances, inst)
	for ty, d := range n.DescCPU {
		node.DescCPU[ty] += d
		typeSet[ty] = true
	}
	for _, child := range n.Children {
		mergeCCSG(&node.Children, node.childIndex, child, typeSet)
	}
}

func sortCCSG(nodes []*CCSGNode) {
	sort.Slice(nodes, func(i, j int) bool {
		a, b := nodes[i], nodes[j]
		return opLess(
			probe.OpID{Interface: a.Interface, Operation: a.Operation, Object: a.Object},
			probe.OpID{Interface: b.Interface, Operation: b.Operation, Object: b.Object},
		)
	})
	for _, n := range nodes {
		sortCCSG(n.Children)
	}
}

// TotalDescCPU sums a node's descendent CPU over all processor types.
func (n *CCSGNode) TotalDescCPU() time.Duration {
	var t time.Duration
	for _, d := range n.DescCPU {
		t += d
	}
	return t
}

// Count returns the number of CCSG nodes in the subtree.
func (n *CCSGNode) Count() int {
	total := 1
	for _, c := range n.Children {
		total += c.Count()
	}
	return total
}

// Nodes returns the total CCSG node count.
func (c *CCSG) Nodes() int {
	total := 0
	for _, r := range c.Roots {
		total += r.Count()
	}
	return total
}
