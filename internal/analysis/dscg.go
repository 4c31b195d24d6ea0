// Package analysis is the paper's off-line characterization tool (§3): it
// reconstructs system-wide causality from the collected monitoring data
// into a Dynamic System Call Graph (DSCG), computes end-to-end timing
// latency with probe-overhead compensation, propagates CPU consumption
// along the caller/callee hierarchy, and synthesizes the CPU Consumption
// Summarization Graph (CCSG).
package analysis

import (
	"fmt"
	"time"

	"causeway/internal/ftl"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/uuid"
)

// Node is one function invocation in the DSCG: a component-object method
// call, with the probe records that observed it and the metrics later
// computed from them.
type Node struct {
	// Chain is the causal chain the invocation's server side belongs to.
	Chain uuid.UUID
	// Oneway marks asynchronous invocations.
	Oneway bool
	// Collocated marks collocation-optimized invocations.
	Collocated bool
	// ifaceID is the opener's interface symbol id plus one and ifacePart
	// its part, copied when the machine opens the node, so that a pass
	// over every node (InterfaceStats) keys it without loading its record;
	// 0 for a node built otherwise, whose record is read. The two sit in
	// padding, so Node keeps its size.
	ifaceID uint32
	// Children are the immediate child invocations in chronological order.
	Children []*Node

	// StubStart, SkelStart, SkelEnd, StubEnd are the probe records for the
	// invocation. Oneway calls that were never dispatched may lack the
	// skeleton pair; the stub pair is always present for stub-side nodes.
	// They point into the records the node was parsed from, and their
	// strings resolve through Syms.
	StubStart, SkelStart, SkelEnd, StubEnd *probe.Compact
	// Syms holds the strings of the records.
	Syms *probe.Symbols

	// Broken marks an invocation whose probe events are incomplete because
	// the call failed — a deadline expired, a connection dropped, or a
	// process died before its remaining probes fired. Broken nodes keep
	// whatever records were collected and stay in the graph (rendered with
	// a '!' marker) rather than being silently dropped.
	Broken    bool
	ifacePart uint32
	// BrokenReason says which events are missing and what failure shape
	// that implies.
	BrokenReason string

	// Metrics, filled in by ComputeLatency / ComputeCPU.
	Latency      time.Duration            // overhead-compensated end-to-end latency
	RawLatency   time.Duration            // before overhead compensation
	Overhead     time.Duration            // causality-capture overhead O_F
	HasLatency   bool                     // latency fields are valid
	SelfCPU      time.Duration            // exclusive CPU consumption SC_F
	HasCPU       bool                     // SelfCPU is valid
	DescCPU      map[string]time.Duration // DC_F per processor type
	InclusiveCPU map[string]time.Duration // SC_F + DC_F per processor type
}

// opener is the record that opened the invocation: its stub_start, or the
// skel_start of a oneway callee root. Its operation is the node's.
func (n *Node) opener() *probe.Compact {
	if n.StubStart != nil {
		return n.StubStart
	}
	return n.SkelStart
}

// Op returns the invoked operation.
func (n *Node) Op() probe.OpID {
	if r := n.opener(); r != nil {
		return n.Syms.Op(r)
	}
	return probe.OpID{}
}

// operation returns the invoked operation's method name.
func (n *Node) operation() string {
	if r := n.opener(); r != nil {
		return n.Syms.Operation(r)
	}
	return ""
}

// ServerProcess returns the process that executed the invocation body.
func (n *Node) ServerProcess() string {
	if n.SkelStart != nil {
		return n.Syms.Process(n.SkelStart)
	}
	return ""
}

// ServerProcType returns the processor type that executed the body.
func (n *Node) ServerProcType() string {
	if n.SkelStart != nil {
		return n.Syms.ProcType(n.SkelStart)
	}
	return ""
}

// ClientProcess returns the process that issued the invocation.
func (n *Node) ClientProcess() string {
	if n.StubStart != nil {
		return n.Syms.Process(n.StubStart)
	}
	return ""
}

// ArgsSemantics returns the captured input-parameter rendering, when the
// semantics aspect was armed (§2.1's application-semantics behaviour).
func (n *Node) ArgsSemantics() string {
	if n.SkelStart != nil {
		return n.Syms.SemanticsOf(n.SkelStart)
	}
	return ""
}

// ResultSemantics returns the captured output-parameter or raised-
// exception rendering, when the semantics aspect was armed.
func (n *Node) ResultSemantics() string {
	if n.SkelEnd != nil {
		return n.Syms.SemanticsOf(n.SkelEnd)
	}
	return ""
}

// Count returns the number of invocations in the subtree rooted at n.
func (n *Node) Count() int {
	total := 1
	for _, c := range n.Children {
		total += c.Count()
	}
	return total
}

// Walk visits n and its descendants preorder.
func (n *Node) Walk(fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Tree is one causal chain unfolded into its invocation tree. A chain may
// have several roots: sibling top-level calls issued by the same client
// thread (Table 1's sibling pattern).
type Tree struct {
	Chain uuid.UUID
	Roots []*Node
}

// Anomaly records a log subsequence that matched none of the Figure-4
// transition patterns; the analyzer "will indicate the failure and restart
// from the next log record".
type Anomaly struct {
	Chain uuid.UUID
	// Index is the offending event's position among the chain's events in
	// the order they were applied: the index into the sorted event list
	// offline; on a live chain, the count of the chain's events the monitor
	// applied before it. Zero for anomalies found when stitching chains.
	Index  int
	Reason string
}

// String renders the anomaly for reports.
func (a Anomaly) String() string {
	return fmt.Sprintf("chain %s event[%d]: %s", a.Chain.Short(), a.Index, a.Reason)
}

// BrokenChain records one invocation whose event sequence is incomplete
// because of a failure. Unlike an Anomaly — an impossible transition that
// suggests corrupt or mis-merged logs — a broken chain is a *plausible*
// partial sequence: exactly what a timed-out, dropped, or half-dead call
// leaves behind. Broken chains are reported as warnings, not errors.
type BrokenChain struct {
	Chain uuid.UUID
	// Op is the invocation's operation name.
	Op string
	// Reason describes the missing events and the failure they imply.
	Reason string
}

// String renders the broken-chain warning for reports.
func (b BrokenChain) String() string {
	return fmt.Sprintf("chain %s %s: %s", b.Chain.Short(), b.Op, b.Reason)
}

// DSCG is the Dynamic System Call Graph: the forest of causal-chain trees,
// grouped (as the paper puts it, "a tree by grouping {Ti}") under an
// implicit virtual root. Oneway child chains are stitched beneath their
// forking stub-side node and do not appear as separate trees.
type DSCG struct {
	Trees     []*Tree
	Anomalies []Anomaly
	// Broken lists the invocations classified broken-but-reported, in
	// deterministic chain order.
	Broken []BrokenChain
	// stats cache
	nodes int
}

// Nodes returns the total number of invocations in the graph.
func (g *DSCG) Nodes() int { return g.nodes }

// Walk visits every node of every tree preorder.
func (g *DSCG) Walk(fn func(*Node)) {
	for _, t := range g.Trees {
		for _, r := range t.Roots {
			r.Walk(fn)
		}
	}
}

// Source is the store view reconstruction needs: the paper's two queries
// (unique Function UUIDs, seq-sorted events of one chain) plus oneway link
// resolution. *logdb.Store and *tracestore.Store both satisfy it.
type Source interface {
	// Chains returns the set of unique Function UUIDs in deterministic
	// (sorted) order.
	Chains() []uuid.UUID
	// Events returns the chain's event records sorted by ascending seq.
	Events(chain uuid.UUID) []probe.Record
	// ChildChain resolves the oneway link recorded at (parent, seq).
	ChildChain(parent uuid.UUID, seq uint64) (uuid.UUID, bool)
}

// Reconstruct rebuilds the DSCG from a collected log store, implementing
// the Figure-4 state machine. Chains beginning with a skel_start event are
// oneway callee sides and are attached under their parent's forking node
// via the recorded chain links; chains whose link is missing surface as
// anomalous orphan trees.
func Reconstruct(db *logdb.Store) *DSCG { return ReconstructFrom(db) }

// ReconstructFrom is Reconstruct over any Source, a chain at a time: each
// chain's records are made compact through one symbol table, and parsed.
func ReconstructFrom(db Source) *DSCG {
	chains := db.Chains()
	syms := probe.NewSymbols(1)
	parsed := make([]ParsedChain, len(chains))
	for i, chain := range chains {
		parsed[i] = parseRecords(chain, db.Events(chain), syms, 0)
	}
	return assemble(db, chains, parsed)
}

// ParsedChain is the per-chain output of the Figure-4 state machine
// (ChainMachine): the embarrassingly parallel half of reconstruction.
// Chains are keyed by a constant-size Function UUID and parsed
// independently, so any number of workers can parse concurrently with no
// coordination, each interning into a part of its own.
// The streaming assembler (internal/streamrecon) also parses chains one
// at a time as they quiesce, using the clean-parse result as its
// completion heuristic.
type ParsedChain struct {
	Roots      []*Node
	Anomalies  []Anomaly
	Broken     []BrokenChain
	CalleeSide bool // chain begins with skel_start (oneway callee)
	Empty      bool
}

// ParseChainEvents runs the Figure-4 state machine over one chain's
// seq-sorted event records: every event applied in order, then the chain
// finished. The nodes point into a compact copy of events, with symbols of
// their own.
func ParseChainEvents(chain uuid.UUID, events []probe.Record) ParsedChain {
	return parseRecords(chain, events, probe.NewSymbols(1), 0)
}

// ChainParser is ParseChainEvents for a caller that keeps nothing of a
// chain's parse past the next one, such as a store's retention sweep: it
// reuses its compact records and its symbols from chain to chain, so that
// a parse allocates only its nodes. The zero ChainParser is ready to use.
type ChainParser struct {
	syms *probe.Symbols
	buf  []probe.Compact
}

// Parse is ParseChainEvents(chain, events), valid until the next Parse.
func (p *ChainParser) Parse(chain uuid.UUID, events []probe.Record) ParsedChain {
	if p.syms == nil {
		p.syms = probe.NewSymbols(1)
	}
	t := p.syms.Table(0)
	t.Reset()
	p.buf = t.AppendCompacts(p.buf[:0], events)
	return parseCompacts(chain, p.buf, p.syms)
}

// parseRecords is ParseChainEvents with the records made compact through
// part p of syms.
func parseRecords(chain uuid.UUID, events []probe.Record, syms *probe.Symbols, p int) ParsedChain {
	compacts := syms.Table(p).AppendCompacts(make([]probe.Compact, 0, len(events)), events)
	return parseCompacts(chain, compacts, syms)
}

// parseCompacts runs the Figure-4 state machine over one chain's seq-sorted
// events, whose strings are syms'. The nodes point into events.
func parseCompacts(chain uuid.UUID, events []probe.Compact, syms *probe.Symbols) ParsedChain {
	if len(events) == 0 {
		return ParsedChain{Empty: true}
	}
	out := ParsedChain{CalleeSide: events[0].Event == ftl.SkelStart}
	m := ChainMachine{Syms: syms}
	for i := range events {
		m.Apply(&events[i], &out)
	}
	m.Finish(&out)
	return out
}

// Clean reports a chain that holds events and parsed with no broken
// invocation and no anomaly: every call in it ran to completion. It is the
// completion test of the streaming assembler and of the store's retention
// sweep.
func (p ParsedChain) Clean() bool {
	return !p.Empty && len(p.Broken) == 0 && len(p.Anomalies) == 0
}

// assemble runs the sequential tail of reconstruction: grouping parsed
// chains into trees and stitching oneway callee chains under their forking
// nodes. Iteration follows the deterministic chains order, so the result is
// identical no matter how the parse phase was scheduled. The chains must
// have been parsed over one Symbols, since a forking node adopts its
// callee's skeleton records, which may lie in another part. Stitching
// MUTATES the parsed nodes (callee roots are adopted into their forking
// parents), so a ParsedChain slice must not be assembled twice.
func assemble(db Source, chains []uuid.UUID, parsed []ParsedChain) *DSCG {
	g := &DSCG{}
	childTrees := make(map[uuid.UUID]*Tree) // oneway callee chains by chain id
	var parentTrees []*Tree

	for i, chain := range chains {
		p := parsed[i]
		if p.Empty {
			continue
		}
		g.Anomalies = append(g.Anomalies, p.Anomalies...)
		g.Broken = append(g.Broken, p.Broken...)
		t := &Tree{Chain: chain, Roots: p.Roots}
		if p.CalleeSide {
			childTrees[chain] = t
		} else {
			parentTrees = append(parentTrees, t)
		}
	}

	// Stitch oneway child chains under their forking nodes.
	stitched := make(map[uuid.UUID]bool)
	var stitch func(n *Node)
	stitch = func(n *Node) {
		for _, c := range n.Children {
			stitch(c)
		}
		if !n.Oneway || n.StubStart == nil {
			return
		}
		childChain, ok := db.ChildChain(n.Chain, n.StubStart.Seq)
		if !ok {
			if n.Broken {
				// The forking stub died before recording its link — the
				// same failure already reported for the node itself.
				return
			}
			g.Anomalies = append(g.Anomalies, Anomaly{
				Chain: n.Chain, Reason: fmt.Sprintf("oneway %s at seq %d has no chain link", n.operation(), n.StubStart.Seq),
			})
			return
		}
		if stitched[childChain] {
			// Already adopted (stitch re-visited an adopted subtree).
			return
		}
		ct, ok := childTrees[childChain]
		if !ok {
			// The callee side may legitimately be missing if the process
			// died before dispatch; note it and continue.
			g.Anomalies = append(g.Anomalies, Anomaly{
				Chain: childChain, Reason: "oneway callee chain has no events",
			})
			return
		}
		stitched[childChain] = true
		// The child chain's first root is the callee side of this very
		// call: adopt its skeleton records and children. Any further roots
		// would be anomalous continuation; keep them as extra children.
		for i, r := range ct.Roots {
			if i == 0 && r.SkelStart != nil && r.StubStart == nil && n.Syms.SameOp(r.SkelStart, n.opener()) {
				n.SkelStart, n.SkelEnd = r.SkelStart, r.SkelEnd
				n.Children = append(n.Children, r.Children...)
				// Recurse into adopted children for nested oneways.
				for _, c := range r.Children {
					stitch(c)
				}
				continue
			}
			n.Children = append(n.Children, r)
			stitch(r)
		}
	}
	for _, t := range parentTrees {
		for _, r := range t.Roots {
			stitch(r)
		}
	}
	// Callee chains no parent claimed stay visible as orphan trees rather
	// than being dropped. First let every unclaimed callee chain claim its
	// own oneway descendants, then collect the ones still unclaimed, both
	// in the deterministic chains order.
	for _, chain := range chains {
		if t, ok := childTrees[chain]; ok && !stitched[chain] {
			for _, r := range t.Roots {
				stitch(r)
			}
		}
	}
	for _, chain := range chains {
		t, ok := childTrees[chain]
		if !ok || stitched[chain] {
			continue
		}
		g.Anomalies = append(g.Anomalies, Anomaly{Chain: chain, Reason: "callee chain never claimed by a parent link"})
		parentTrees = append(parentTrees, t)
	}

	g.Trees = parentTrees
	g.Walk(func(*Node) { g.nodes++ })
	return g
}
