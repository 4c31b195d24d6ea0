// Package render presents analysis results. The paper uses a hyperbolic
// tree viewer for the DSCG (Figure 5) and an XML viewer for the CCSG
// (Figure 6); visualization is not the contribution, so here the DSCG gets
// an indented text tree with per-node annotations (latency on hover in the
// paper → latency inline here) and the CCSG gets a faithful XML export with
// the Figure-6 fields: ObjectID, InvocationTimes, IncludedFunctionInstances,
// and Self/Descendent CPU in [second, microsecond] format.
package render

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"time"

	"causeway/internal/analysis"
)

// DSCGText writes the call graph as an indented tree. maxDepth < 0 means
// unlimited; maxNodes <= 0 means unlimited.
func DSCGText(w io.Writer, g *analysis.DSCG, maxDepth, maxNodes int) error {
	written := 0
	for ti, t := range g.Trees {
		if _, err := fmt.Fprintf(w, "chain %s\n", t.Chain.Short()); err != nil {
			return err
		}
		for _, r := range t.Roots {
			if err := writeNode(w, r, 1, maxDepth, maxNodes, &written); err != nil {
				return err
			}
		}
		if maxNodes > 0 && written >= maxNodes {
			if _, err := fmt.Fprintf(w, "… (%d more trees elided)\n", len(g.Trees)-ti-1); err != nil {
				return err
			}
			break
		}
	}
	if len(g.Broken) > 0 {
		if _, err := fmt.Fprintf(w, "broken chains: %d\n", len(g.Broken)); err != nil {
			return err
		}
		for _, b := range g.Broken {
			if _, err := fmt.Fprintf(w, "  ! %s\n", b); err != nil {
				return err
			}
		}
	}
	if len(g.Anomalies) > 0 {
		if _, err := fmt.Fprintf(w, "anomalies: %d\n", len(g.Anomalies)); err != nil {
			return err
		}
		for _, a := range g.Anomalies {
			if _, err := fmt.Fprintf(w, "  ! %s\n", a); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeNode(w io.Writer, n *analysis.Node, depth, maxDepth, maxNodes int, written *int) error {
	if maxNodes > 0 && *written >= maxNodes {
		return nil
	}
	if maxDepth >= 0 && depth > maxDepth {
		return nil
	}
	*written++
	indent := strings.Repeat("  ", depth)
	mark := ""
	if n.Broken {
		mark = "! "
	}
	op := n.Op()
	label := fmt.Sprintf("%s%s%s::%s(%s)", indent, mark, op.Interface, op.Operation, op.Object)
	var notes []string
	if n.Broken {
		notes = append(notes, "broken: "+n.BrokenReason)
	}
	if n.Oneway {
		notes = append(notes, "oneway")
	}
	if n.Collocated {
		notes = append(notes, "collocated")
	}
	if proc := n.ServerProcess(); proc != "" {
		notes = append(notes, "on "+proc)
	}
	if n.HasLatency {
		notes = append(notes, fmt.Sprintf("L=%v (raw %v, O=%v)", n.Latency, n.RawLatency, n.Overhead))
	}
	if n.HasCPU {
		notes = append(notes, fmt.Sprintf("selfCPU=%v", n.SelfCPU))
	}
	if sem := n.ArgsSemantics(); sem != "" {
		notes = append(notes, sem)
	}
	if sem := n.ResultSemantics(); sem != "" {
		notes = append(notes, sem)
	}
	if len(notes) > 0 {
		label += "  [" + strings.Join(notes, ", ") + "]"
	}
	if _, err := fmt.Fprintln(w, label); err != nil {
		return err
	}
	for _, c := range n.Children {
		if err := writeNode(w, c, depth+1, maxDepth, maxNodes, written); err != nil {
			return err
		}
	}
	return nil
}

// DSCGString renders the graph to a string (unlimited depth/nodes).
func DSCGString(g *analysis.DSCG) string {
	var b strings.Builder
	// strings.Builder never fails.
	_ = DSCGText(&b, g, -1, 0)
	return b.String()
}

// secMicro is the Figure-6 "[second, microsecond]" CPU representation.
type secMicro struct {
	Second      int64 `xml:"Second"`
	Microsecond int64 `xml:"Microsecond"`
}

func toSecMicro(d time.Duration) secMicro {
	return secMicro{
		Second:      int64(d / time.Second),
		Microsecond: int64((d % time.Second) / time.Microsecond),
	}
}

// xmlInstance mirrors Figure 6's IncludedFunctionInstances entries.
type xmlInstance struct {
	Chain   string   `xml:"Chain,attr"`
	Seq     uint64   `xml:"Seq,attr"`
	SelfCPU secMicro `xml:"SelfCPUConsumption"`
}

// xmlCCSGNode is one CCSG node in the XML document.
type xmlCCSGNode struct {
	XMLName         xml.Name      `xml:"Function"`
	Interface       string        `xml:"Interface,attr"`
	Name            string        `xml:"Name,attr"`
	ObjectID        string        `xml:"ObjectID,attr"`
	Component       string        `xml:"Component,attr,omitempty"`
	InvocationTimes int           `xml:"InvocationTimes"`
	SelfCPU         secMicro      `xml:"SelfCPUConsumption"`
	DescCPU         []xmlDescCPU  `xml:"DescendentCPUConsumption"`
	Instances       []xmlInstance `xml:"IncludedFunctionInstances>Instance"`
	Children        []xmlCCSGNode `xml:"Children>Function"`
}

// xmlDescCPU is one element of the <C1..CM> descendent-CPU vector.
type xmlDescCPU struct {
	ProcessorType string   `xml:"ProcessorType,attr"`
	CPU           secMicro `xml:"CPU"`
}

type xmlCCSG struct {
	XMLName        xml.Name      `xml:"CCSG"`
	ProcessorTypes []string      `xml:"ProcessorTypes>Type"`
	Roots          []xmlCCSGNode `xml:"Roots>Function"`
}

// CCSGXML writes the CPU Consumption Summarization Graph as an XML document
// in the shape Figure 6 shows in the paper's XML viewer.
func CCSGXML(w io.Writer, c *analysis.CCSG) error {
	doc := xmlCCSG{ProcessorTypes: c.ProcessorTypes}
	for _, r := range c.Roots {
		doc.Roots = append(doc.Roots, toXMLNode(r, c.ProcessorTypes))
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("render: encode CCSG: %w", err)
	}
	_, err := io.WriteString(w, "\n")
	return err
}

func toXMLNode(n *analysis.CCSGNode, types []string) xmlCCSGNode {
	out := xmlCCSGNode{
		Interface:       n.Interface,
		Name:            n.Operation,
		ObjectID:        n.Object,
		Component:       n.Component,
		InvocationTimes: n.InvocationTimes,
		SelfCPU:         toSecMicro(n.SelfCPU),
	}
	for _, ty := range types {
		if d, ok := n.DescCPU[ty]; ok && d != 0 {
			out.DescCPU = append(out.DescCPU, xmlDescCPU{ProcessorType: ty, CPU: toSecMicro(d)})
		}
	}
	for _, inst := range n.Instances {
		out.Instances = append(out.Instances, xmlInstance{
			Chain: inst.Chain, Seq: inst.Seq, SelfCPU: toSecMicro(inst.SelfCPU),
		})
	}
	for _, c := range n.Children {
		out.Children = append(out.Children, toXMLNode(c, types))
	}
	return out
}

// CCSGText writes a compact indented text view of the CCSG.
func CCSGText(w io.Writer, c *analysis.CCSG) error {
	var write func(n *analysis.CCSGNode, depth int) error
	write = func(n *analysis.CCSGNode, depth int) error {
		indent := strings.Repeat("  ", depth)
		if _, err := fmt.Fprintf(w, "%s%s::%s(%s) x%d self=%v desc=%v\n",
			indent, n.Interface, n.Operation, n.Object,
			n.InvocationTimes, n.SelfCPU, n.TotalDescCPU()); err != nil {
			return err
		}
		for _, ch := range n.Children {
			if err := write(ch, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range c.Roots {
		if err := write(r, 0); err != nil {
			return err
		}
	}
	return nil
}
