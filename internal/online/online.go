// Package online applies the global causality capturing technique "from
// the on-line perspective for application-level system management" — one
// of the paper's §6 future-work directions, built here as an extension.
//
// Monitor is a probe.Sink: attach it (alone or via probe.TeeSink next to
// the persistent log) and it incrementally runs the Figure-4 state machine
// per chain *as records arrive*, tolerating cross-process arrival skew by
// applying each chain's events strictly in sequence-number order and
// buffering early arrivals. The moment a top-level invocation completes,
// its subtree is delivered to the OnRoot callback with latency metrics
// computed — the hook a management layer uses for live slow-call or
// error-topology reactions, without waiting for the application to reach a
// quiescent state as the offline analyzer does (§3).
package online

import (
	"fmt"
	"sync"
	"time"

	"causeway/internal/analysis"
	"causeway/internal/ftl"
	"causeway/internal/metrics"
	"causeway/internal/probe"
	"causeway/internal/uuid"
)

// RootEvent describes one completed top-level invocation.
type RootEvent struct {
	// Root is the completed invocation subtree with latency annotated.
	Root *analysis.Node
	// Chain is the causal chain the root belongs to.
	Chain uuid.UUID
	// ParentChain is set for oneway callee sides whose fork link has been
	// observed: the chain that issued the oneway call.
	ParentChain uuid.UUID
	// HasParent reports whether ParentChain is valid.
	HasParent bool
}

// Config wires the monitor's callbacks. Callbacks run synchronously on the
// probe's thread and must be fast; they may be invoked concurrently from
// different application threads.
type Config struct {
	// OnRoot fires when a top-level invocation completes.
	OnRoot func(RootEvent)
	// OnSlow fires additionally when a completed root's compensated
	// latency exceeds SlowThreshold (> 0).
	OnSlow        func(RootEvent)
	SlowThreshold time.Duration
	// OnAnomaly fires when a chain's event stream violates the Figure-4
	// transitions; the chain's state is reset and parsing resumes.
	OnAnomaly func(analysis.Anomaly)
	// Metrics, when set, receives every completed node's compensated
	// latency via Registry.ObserveChain. Because the values come from the
	// same ComputeLatencySubtree pass the offline analyzer runs, the
	// in-process /metrics quantiles agree exactly with offline
	// InterfaceStat quantiles over the same records.
	Metrics *metrics.Registry
	// RecentRoots bounds the ring of completed-root summaries kept for
	// introspection (/chainz). Zero selects the default of 64.
	RecentRoots int
}

// Monitor incrementally reconstructs causality from a live record stream.
type Monitor struct {
	cfg Config

	mu     sync.Mutex
	chains map[uuid.UUID]*chainState
	// links resolves callee chains to their parents (KindLink records).
	links map[uuid.UUID]uuid.UUID // child chain -> parent chain

	// recent is a fixed-size ring of completed-root summaries; recentN
	// counts completions ever, so recentN % len(recent) is the next slot.
	recent  []RootSummary
	recentN uint64
}

// RootSummary is one completed top-level invocation, condensed for
// introspection displays: the op, its chain, how big the subtree was, and
// the compensated root latency.
type RootSummary struct {
	Op         probe.OpID
	Chain      uuid.UUID
	Oneway     bool
	Nodes      int
	Latency    time.Duration
	HasLatency bool
	// When is the root's closing wall timestamp when the latency aspect
	// was armed, else the monitor's observation time.
	When time.Time
}

var (
	_ probe.Sink      = (*Monitor)(nil)
	_ probe.SpanSink  = (*Monitor)(nil)
	_ probe.BatchSink = (*Monitor)(nil)
)

// NewMonitor builds an online monitor.
func NewMonitor(cfg Config) *Monitor {
	capN := cfg.RecentRoots
	if capN <= 0 {
		capN = 64
	}
	return &Monitor{
		cfg:    cfg,
		chains: make(map[uuid.UUID]*chainState),
		links:  make(map[uuid.UUID]uuid.UUID),
		recent: make([]RootSummary, capN),
	}
}

// chainState is one chain's incremental parse: events applied in seq
// order, with early arrivals parked in pending (nil until the first one).
// The state outlives every tree it builds — a chain's later sibling roots
// continue its sequence — but holds no finished tree: pop clears the slot
// it vacates, so a delivered root is the callback's to keep or drop.
type chainState struct {
	nextSeq uint64
	pending map[uint64]probe.Record
	stack   []*analysis.Node
}

// Append implements probe.Sink.
func (m *Monitor) Append(r probe.Record) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.appendLocked(&r)
}

// AppendSpan implements probe.SpanSink: the records of one invocation
// span apply under a single lock acquisition instead of one per record.
func (m *Monitor) AppendSpan(recs []probe.Record) { m.AppendBatch(recs) }

// AppendBatch implements probe.BatchSink: a ship frame's records — any
// mix of chains — apply in order under one lock acquisition.
func (m *Monitor) AppendBatch(recs []probe.Record) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range recs {
		m.appendLocked(&recs[i])
	}
}

func (m *Monitor) appendLocked(r *probe.Record) {
	switch r.Kind {
	case probe.KindLink:
		m.links[r.LinkChild] = r.LinkParent
	case probe.KindEvent:
		cs, ok := m.chains[r.Chain]
		if !ok {
			cs = &chainState{nextSeq: 1}
			m.chains[r.Chain] = cs
		}
		if r.Seq != cs.nextSeq {
			// Early (or duplicate, or stale) arrival: park it until the
			// sequence catches up.
			if cs.pending == nil {
				cs.pending = make(map[uint64]probe.Record)
			}
			cs.pending[r.Seq] = *r
			return
		}
		// In order — the common case: apply without touching pending,
		// then whatever the arrival unblocked.
		cs.nextSeq++
		m.apply(cs, r)
		for len(cs.pending) > 0 {
			next, ok := cs.pending[cs.nextSeq]
			if !ok {
				return
			}
			delete(cs.pending, cs.nextSeq)
			cs.nextSeq++
			m.apply(cs, &next)
		}
	}
}

func (m *Monitor) anomaly(r probe.Record, format string, args ...any) {
	if m.cfg.OnAnomaly != nil {
		m.cfg.OnAnomaly(analysis.Anomaly{
			Chain:  r.Chain,
			Index:  int(r.Seq),
			Reason: fmt.Sprintf(format, args...),
		})
	}
}

// apply advances one chain's state machine by one event.
func (m *Monitor) apply(cs *chainState, r *probe.Record) {
	rec := *r // stable copy whose address the node keeps
	top := func() *analysis.Node {
		if len(cs.stack) == 0 {
			return nil
		}
		return cs.stack[len(cs.stack)-1]
	}
	push := func(n *analysis.Node) {
		if t := top(); t != nil {
			t.Children = append(t.Children, n)
		}
		cs.stack = append(cs.stack, n)
	}
	pop := func() *analysis.Node {
		last := len(cs.stack) - 1
		n := cs.stack[last]
		// Clear the vacated slot: the backing array outlives the pop, and
		// a pointer left in it would keep the whole finished subtree (and
		// every record it points to) reachable for the chain's lifetime.
		cs.stack[last] = nil
		cs.stack = cs.stack[:last]
		if len(cs.stack) == 0 {
			m.complete(n, rec.Chain)
		}
		return n
	}
	reset := func(format string, args ...any) {
		m.anomaly(rec, format, args...)
		cs.stack = nil
	}

	switch rec.Event {
	case ftl.StubStart:
		push(&analysis.Node{
			Op: rec.Op, Chain: rec.Chain,
			Oneway: rec.Oneway, Collocated: rec.Collocated,
			StubStart: &rec,
		})
	case ftl.SkelStart:
		t := top()
		switch {
		case t == nil:
			// Callee side of a oneway call: a root with no stub side.
			push(&analysis.Node{Op: rec.Op, Chain: rec.Chain, Oneway: rec.Oneway, SkelStart: &rec})
		case t.Op == rec.Op && t.SkelStart == nil && !t.Oneway:
			t.SkelStart = &rec
		default:
			reset("unexpected skel_start(%s)", rec.Op.Operation)
		}
	case ftl.SkelEnd:
		t := top()
		switch {
		case t == nil:
			reset("skel_end(%s) with no open invocation", rec.Op.Operation)
		case t.Op == rec.Op && t.SkelStart != nil && t.SkelEnd == nil:
			t.SkelEnd = &rec
			if t.StubStart == nil {
				// Callee-side root finishes at skeleton end.
				pop()
			}
		default:
			reset("unexpected skel_end(%s)", rec.Op.Operation)
		}
	case ftl.StubEnd:
		t := top()
		switch {
		case t == nil:
			reset("stub_end(%s) with no open invocation", rec.Op.Operation)
		case t.Op == rec.Op && t.StubEnd == nil && (t.Oneway || t.SkelEnd != nil || t.Collocated):
			// Oneway stub sides close without a skeleton pair on this
			// chain; synchronous calls must have closed their skeleton.
			if !t.Oneway && t.SkelEnd == nil {
				reset("stub_end(%s) before skel_end", rec.Op.Operation)
				return
			}
			t.StubEnd = &rec
			pop()
		default:
			reset("unexpected stub_end(%s)", rec.Op.Operation)
		}
	default:
		reset("invalid event %v", rec.Event)
	}
}

// complete fires the callbacks for a finished top-level invocation.
func (m *Monitor) complete(root *analysis.Node, chain uuid.UUID) {
	analysis.ComputeLatencySubtree(root)

	// Feed the in-process metrics plane and the introspection ring. Both
	// run under m.mu (Append holds it through apply), so plain slice and
	// counter writes suffice. The chain rides along as the exemplar
	// identity — when the registry has exemplars armed, a latency bucket
	// remembers which causal chain last landed in it, stamped with the
	// root's closing wall time (falling back to observation time when the
	// latency aspect was off).
	when := rootEnd(root)
	if when.IsZero() {
		when = time.Now()
	}
	whenNanos := when.UnixNano()
	nodes := 0
	root.Walk(func(n *analysis.Node) {
		nodes++
		if m.cfg.Metrics != nil && n.HasLatency {
			m.cfg.Metrics.ObserveChainEx(n.Op.Interface, n.Latency, metrics.ChainID(chain), whenNanos)
		}
	})
	sum := RootSummary{
		Op: root.Op, Chain: chain, Oneway: root.Oneway,
		Nodes: nodes, Latency: root.Latency, HasLatency: root.HasLatency,
		When: when,
	}
	m.recent[m.recentN%uint64(len(m.recent))] = sum
	m.recentN++

	ev := RootEvent{Root: root, Chain: chain}
	if parent, ok := m.links[chain]; ok {
		ev.ParentChain, ev.HasParent = parent, true
	}
	if m.cfg.OnRoot != nil {
		m.cfg.OnRoot(ev)
	}
	if m.cfg.OnSlow != nil && m.cfg.SlowThreshold > 0 &&
		root.HasLatency && root.Latency > m.cfg.SlowThreshold {
		m.cfg.OnSlow(ev)
	}
}

// rootEnd returns the root's closing wall timestamp, zero when the
// latency aspect was off.
func rootEnd(root *analysis.Node) time.Time {
	if root.StubEnd != nil && !root.StubEnd.WallEnd.IsZero() {
		return root.StubEnd.WallEnd
	}
	if root.SkelEnd != nil && !root.SkelEnd.WallEnd.IsZero() {
		return root.SkelEnd.WallEnd
	}
	return time.Time{}
}

// SetMetrics attaches a registry to feed compensated chain latencies
// into; a no-op when one is already attached, so the first process of a
// deployment sharing one monitor wins.
func (m *Monitor) SetMetrics(reg *metrics.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cfg.Metrics == nil {
		m.cfg.Metrics = reg
	}
}

// RecentRoots returns up to the last RecentRoots completed top-level
// invocations, newest first — the /chainz data source.
func (m *Monitor) RecentRoots() []RootSummary {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.recentN
	capN := uint64(len(m.recent))
	count := n
	if count > capN {
		count = capN
	}
	out := make([]RootSummary, 0, count)
	for i := uint64(1); i <= count; i++ {
		out = append(out, m.recent[(n-i)%capN])
	}
	return out
}

// OpenChains reports chains with incomplete state — in-flight invocations
// or chains stalled by missing records. Management layers poll it to spot
// hangs.
func (m *Monitor) OpenChains() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	open := 0
	for _, cs := range m.chains {
		if len(cs.stack) > 0 || len(cs.pending) > 0 {
			open++
		}
	}
	return open
}

// Flush reports every still-open chain as an anomaly (e.g. at shutdown)
// and clears all state.
func (m *Monitor) Flush() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for chain, cs := range m.chains {
		if len(cs.stack) > 0 || len(cs.pending) > 0 {
			if m.cfg.OnAnomaly != nil {
				m.cfg.OnAnomaly(analysis.Anomaly{
					Chain:  chain,
					Reason: fmt.Sprintf("chain open at flush: %d unfinished invocations, %d buffered events", len(cs.stack), len(cs.pending)),
				})
			}
		}
	}
	m.chains = make(map[uuid.UUID]*chainState)
	m.links = make(map[uuid.UUID]uuid.UUID)
}
