package analysis

import (
	"fmt"

	"causeway/internal/ftl"
	"causeway/internal/probe"
)

// ChainMachine is the Figure-4 state machine for one chain, advanced one
// seq-ordered event at a time — the only implementation of the transitions.
// Its drivers differ in when they finish: ParseChainEvents applies a
// collected chain's events and finishes at once; the online monitor applies
// events as they arrive and finishes at Flush.
//
//	sync F:   F.stub_start F.skel_start children* F.skel_end F.stub_end
//	oneway F: F.stub_start F.stub_end            (callee side on child chain)
//	callee F: F.skel_start children* F.skel_end  (root of a oneway child chain)
//
// Each accepted transition is "in progress" in the paper's terms. Prefixes
// of these sequences that a failed call plausibly leaves behind — a
// deadline expired, a connection dropped, a process died before its
// remaining probes fired — close the invocation as broken: the node keeps
// whatever records exist and is reported as a warning. A record no failure
// can explain (mismatched operation, event out of any order) is an anomaly:
// it is skipped, the invocation it interrupted closes as it stands, and the
// machine restarts from the next record.
//
// A root is appended to the output the moment it closes, so a root in the
// output is final: no later event amends it. The zero value is ready to use.
type ChainMachine struct {
	stack []openCall // the invocations in progress, outermost first

	// Applied counts the events applied so far: the Anomaly.Index of the
	// next. A driver that moves a chain to a fresh machine between
	// invocations carries it over.
	Applied int

	// Pool, when set, supplies the machine's nodes. Without one every node
	// is allocated, and the trees are the caller's to keep.
	Pool *NodePool

	// Syms holds the strings of the records applied. Every node the
	// machine builds keeps it, and the anomalies it reports name
	// operations through it.
	Syms *probe.Symbols
}

// Recycle rewinds the machine to the start of another chain, keeping its
// storage.
func (m *ChainMachine) Recycle() {
	clear(m.stack)
	m.stack, m.Applied = m.stack[:0], 0
}

// NodePool keeps Nodes for the machines that share it. A driver that keeps
// no tree past its delivery — the collector's chain table — hands each
// delivered root back with Put, and its machines build trees without
// allocating once the pool holds as many nodes as are in use at a time.
type NodePool struct{ free []*Node }

// maxPooledNodes bounds the nodes a pool keeps, so one enormous burst does
// not stay allocated for good.
const maxPooledNodes = 4096

// Put takes back root and its subtree: the caller vouches that nothing
// references them any more. They are cleared, so a pooled node pins no
// record and no other node.
func (p *NodePool) Put(root *Node) {
	for _, c := range root.Children {
		p.Put(c)
	}
	clear(root.Children)
	*root = Node{Children: root.Children[:0]}
	if len(p.free) < maxPooledNodes {
		p.free = append(p.free, root)
	}
}

// node returns a zero Node: a pooled one when there is one.
func (m *ChainMachine) node() *Node {
	if m.Pool == nil || len(m.Pool.free) == 0 {
		return new(Node)
	}
	n := m.Pool.free[len(m.Pool.free)-1]
	m.Pool.free = m.Pool.free[:len(m.Pool.free)-1]
	return n
}

// openCall is one invocation in progress and what it waits for.
type openCall struct {
	n  *Node
	st callState
}

type callState uint8

const (
	sent            callState = iota // sync stub_start seen: skel_start next
	onewaySent                       // oneway stub_start seen: stub_end next
	body                             // skeleton entered (or its record lost): children, then skel_end
	calleeBody                       // the same for a oneway callee root, which has no stub side
	returned                         // skel_end seen: stub_end next
	entryLost                        // skel_end seen with no skel_start: stub_end next
	abandoned                        // stub_end seen first: the skel_start tied with it may follow
	abandonedInBody                  // stub_end seen before skel_end, which may follow
)

// Open reports whether any invocation is in progress.
func (m *ChainMachine) Open() bool { return len(m.stack) > 0 }

// Apply advances the machine by one event, which must not sort before any
// event already applied. Nodes keep r, so it must stay valid and unchanged
// for as long as they are in use. Roots that close, invocations classified
// broken and anomalies are appended to out.
func (m *ChainMachine) Apply(r *probe.Compact, out *ParsedChain) {
	for !m.step(r, out) {
	}
	m.Applied++
}

// Finish closes every invocation still in progress as broken, innermost
// first: the chain ended (or the driver stopped waiting) before they did.
func (m *ChainMachine) Finish(out *ParsedChain) {
	for len(m.stack) > 0 {
		m.giveUp(out, true)
	}
}

// step offers r to the innermost invocation in progress, or to the chain
// itself when there is none, and reports whether r was consumed. An
// invocation that closes without consuming r leaves it to its parent.
func (m *ChainMachine) step(r *probe.Compact, out *ParsedChain) bool {
	if len(m.stack) == 0 {
		switch r.Event {
		case ftl.StubStart:
			m.open(r)
		case ftl.SkelStart:
			n := m.node()
			n.Chain, n.Oneway, n.SkelStart = r.Chain, r.Oneway, r
			m.push(n, calleeBody)
		default:
			m.anomaly(r, out, "chain cannot continue with %s(%s)", r.Event, m.Syms.Operation(r))
		}
		return true
	}
	top := &m.stack[len(m.stack)-1]
	n := top.n
	// A chain's records share a part, so equal ids are equal operations.
	same := r.Op == n.opener().Op
	switch top.st {
	case sent:
		switch {
		case r.Event == ftl.StubEnd && same:
			// The client error path (deadline, connection failure).
			n.StubEnd, top.st = r, abandoned
		case r.Event == ftl.SkelEnd && same:
			n.SkelEnd, top.st = r, entryLost
		case r.Event == ftl.StubStart:
			// A child's stub_start where this call's skel_start belongs:
			// the skeleton-entry record was lost, but the body demonstrably
			// ran. Open the body without it and offer r again as its child.
			markBroken(n, out, "missing skel_start (skeleton-entry record lost)")
			top.st = body
			return false
		case r.Event == ftl.SkelStart && same:
			n.SkelStart, top.st = r, body
		default:
			m.anomaly(r, out, "%s.stub_start followed by %s(%s), want skel_start", n.operation(), r.Event, m.Syms.Operation(r))
			m.close(out)
		}
		return true
	case body, calleeBody:
		switch {
		case r.Event == ftl.StubStart:
			m.open(r)
		case r.Event == ftl.SkelEnd && same && top.st == calleeBody:
			n.SkelEnd = r
			m.close(out)
		case r.Event == ftl.SkelEnd && same:
			n.SkelEnd, top.st = r, returned
		case r.Event == ftl.StubEnd && same && top.st == body:
			// The client's deadline expired mid-body: its stub_end sorts
			// before the server's skel_end.
			n.StubEnd, top.st = r, abandonedInBody
		default:
			oneway := ""
			if top.st == calleeBody {
				oneway = "oneway "
			}
			m.anomaly(r, out, "inside %s%s body: unexpected %s(%s)", oneway, n.operation(), r.Event, m.Syms.Operation(r))
			m.close(out)
		}
		return true
	case onewaySent, returned:
		if r.Event == ftl.StubEnd && same {
			n.StubEnd = r
			m.close(out)
			return true
		}
	case entryLost:
		if r.Event == ftl.StubEnd && same {
			n.StubEnd = r
			markBroken(n, out, "missing skel_start (skeleton-entry record lost)")
			m.close(out)
			return true
		}
	case abandoned:
		// An error-path stub_end shares its sequence number with the
		// server's skel_start, so the skeleton records of the abandoned
		// call may sort before or after it; taking them here makes both
		// tie orders parse identically.
		if r.Event == ftl.SkelStart && same {
			n.SkelStart, top.st = r, abandonedInBody
			return true
		}
	case abandonedInBody:
		if r.Event == ftl.SkelEnd && same {
			n.SkelEnd = r
			m.giveUp(out, false)
			return true
		}
	}
	// r is not what the invocation waited for: the record that was is lost.
	m.giveUp(out, false)
	return false
}

// open starts the stub-side invocation r announces, as a child of the
// innermost invocation in progress.
func (m *ChainMachine) open(r *probe.Compact) {
	st := sent
	if r.Oneway {
		st = onewaySent
	}
	n := m.node()
	n.Chain, n.Oneway, n.Collocated, n.StubStart = r.Chain, r.Oneway, r.Collocated, r
	m.push(n, st)
}

func (m *ChainMachine) push(n *Node, st callState) {
	n.Syms = m.Syms
	if r := n.opener(); r != nil {
		n.ifaceID, n.ifacePart = r.Op.Interface+1, r.Part
	}
	if len(m.stack) > 0 {
		parent := m.stack[len(m.stack)-1].n
		parent.Children = append(parent.Children, n)
	}
	m.stack = append(m.stack, openCall{n, st})
}

// close ends the innermost invocation; a root goes to out. The vacated
// slot is cleared: the backing array outlives the pop, and a pointer left
// in it would keep the finished subtree reachable for the machine's life.
func (m *ChainMachine) close(out *ParsedChain) {
	last := len(m.stack) - 1
	n := m.stack[last].n
	m.stack[last] = openCall{}
	m.stack = m.stack[:last]
	if last == 0 {
		out.Roots = append(out.Roots, n)
	}
}

// giveUp closes the innermost invocation as broken, naming what its state
// still waited for; eof says the chain ended rather than moved on.
func (m *ChainMachine) giveUp(out *ParsedChain, eof bool) {
	top := m.stack[len(m.stack)-1]
	var reason string
	switch top.st {
	case sent:
		reason = "missing skel_start, skel_end, and stub_end (chain ends after stub_start)"
	case onewaySent:
		reason = "missing stub_end (oneway stub-exit record lost)"
		if eof {
			reason = "missing stub_end (chain ends after oneway stub_start)"
		}
	case body:
		reason = "missing skel_end and stub_end (chain ends inside the body)"
	case calleeBody:
		reason = "missing skel_end (oneway callee died mid-call or log truncated)"
	case returned:
		reason = "missing stub_end (client died before return or stub-exit record lost)"
	case entryLost:
		reason = "missing skel_start and stub_end"
	case abandoned, abandonedInBody:
		reason = abandonedReason(top.n)
	}
	markBroken(top.n, out, reason)
	m.close(out)
}

// abandonedReason names the failure shape of an invocation whose stub_end
// fired before (or instead of) the skeleton pair — the signature a client
// deadline leaves behind. The wording depends only on which records were
// collected, so both orders of the stub_end/skel_start sequence-number tie
// yield identical output.
func abandonedReason(n *Node) string {
	switch {
	case n.SkelStart == nil:
		return "missing skel_start and skel_end (request never dispatched; client saw an error)"
	case n.SkelEnd == nil:
		return "missing skel_end (client abandoned the call while the server was still executing)"
	default:
		return "stub_end overlaps the skeleton records (client abandoned the call; server completed anyway)"
	}
}

// markBroken classifies n as an incomplete-but-plausible failure remnant:
// the node stays in the tree with whatever records it has, and the chain
// is reported as a warning.
func markBroken(n *Node, out *ParsedChain, reason string) {
	n.Broken = true
	n.BrokenReason = reason
	out.Broken = append(out.Broken, BrokenChain{Chain: n.Chain, Op: n.operation(), Reason: reason})
}

// anomaly records that r matched no transition and is skipped.
func (m *ChainMachine) anomaly(r *probe.Compact, out *ParsedChain, format string, args ...any) {
	out.Anomalies = append(out.Anomalies, Anomaly{Chain: r.Chain, Index: m.Applied, Reason: fmt.Sprintf(format, args...)})
}
