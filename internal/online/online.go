// Package online applies the global causality capturing technique "from
// the on-line perspective for application-level system management" — one
// of the paper's §6 future-work directions, built here as an extension.
//
// Monitor is a probe.Sink: attach it (alone or via probe.TeeSink next to
// the persistent log) and it drives the analyzer's Figure-4 state machine
// (analysis.ChainMachine) per chain *as records arrive*, tolerating
// cross-process arrival skew by applying each chain's events strictly in
// sequence-number order and buffering early arrivals. The moment a
// top-level invocation closes, its subtree is delivered to the OnRoot
// callback with latency metrics computed — the hook a management layer
// uses for live slow-call or error-topology reactions, without waiting for
// the application to reach a quiescent state as the offline analyzer does
// (§3). Flush is that quiescent state declared: after it the monitor has
// delivered exactly what analysis.ParseChainEvents reports for the records
// it applied.
package online

import (
	"slices"
	"sync"
	"time"

	"causeway/internal/analysis"
	"causeway/internal/ftl"
	"causeway/internal/metrics"
	"causeway/internal/probe"
	"causeway/internal/uuid"
)

// RootEvent describes one closed top-level invocation.
type RootEvent struct {
	// Root is the invocation subtree with latency annotated, final when
	// delivered: a root that closes cleanly arrives with its last event;
	// one the analyzer classifies broken (Root.Broken, or a Broken
	// descendant) with the event that showed a record missing, or at Flush.
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
	// OnRoot fires when a top-level invocation closes, cleanly or broken.
	OnRoot func(RootEvent)
	// OnSlow fires additionally when a completed root's compensated
	// latency exceeds SlowThreshold (> 0).
	OnSlow        func(RootEvent)
	SlowThreshold time.Duration
	// OnAnomaly fires when a chain's event matches no Figure-4 transition;
	// the event is skipped, the invocation it interrupted closes as it
	// stands, and parsing resumes with the next event.
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
	// out is where the chain machines leave what an event closed, emptied
	// into the callbacks after every apply.
	out analysis.ParsedChain

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

// chainState is one chain's machine and the cursor that feeds it events in
// seq order, early arrivals parked in pending (nil until the first one).
// The state outlives every tree it builds — a chain's later sibling roots
// continue its sequence — but holds no finished tree: a delivered root is
// the callback's to keep or drop.
type chainState struct {
	mach analysis.ChainMachine
	// lastSeq is the newest applied seq, lastBy who emitted the events
	// applied at it: an arrival at lastSeq from someone else is the other
	// half of a tie (an error-path stub_end shares its seq with the server's
	// skel_start), from one of them a resend.
	lastSeq uint64
	lastBy  [2]emitter
	// pending is sorted by seq, equal seqs in arrival order.
	pending []*probe.Record
	// chunk is where arrivals are copied, used of its slots taken: pending
	// and the nodes the machine builds point into it. It is let go whenever
	// the chain has no invocation in progress, so a chunk holds the records
	// of one root's tree (and of what interrupted it, or arrived early
	// meanwhile) and is garbage when those trees are — the chain's state,
	// which lives on, pins no record.
	chunk *[chunkRecs]probe.Record
	used  int
}

// chunkRecs is how many records share one allocation: one malloc per eight
// records instead of one each, at the price of a short tree's unused slots.
const chunkRecs = 8

// keep copies r — borrowed from the caller, a probe span or the telemetry
// server's decode slab — into the chain's chunk: the one copy the monitor
// owns, stable for as long as a node refers to it.
func (cs *chainState) keep(r *probe.Record) *probe.Record {
	if cs.chunk == nil || cs.used == chunkRecs {
		cs.chunk, cs.used = new([chunkRecs]probe.Record), 0
	}
	rec := &cs.chunk[cs.used]
	cs.used++
	*rec = *r
	return rec
}

// emitter identifies the probe activation behind an event within one
// (chain, seq): a thread emits at most one event per sequence number.
type emitter struct {
	thread uint64
	event  ftl.Event
}

// admit moves the cursor to r and reports whether r is to be applied:
// not a resend of a record applied at the cursor, and not any record below
// it, where a resend cannot be told from the second half of a tie that
// arrived after the chain moved on.
func (cs *chainState) admit(r *probe.Record) bool {
	by := emitter{r.Thread, r.Event}
	switch {
	case r.Seq > cs.lastSeq:
		cs.lastSeq, cs.lastBy = r.Seq, [2]emitter{by}
		return true
	case r.Seq < cs.lastSeq || by == cs.lastBy[0] || by == cs.lastBy[1]:
		return false
	}
	cs.lastBy[1], cs.lastBy[0] = cs.lastBy[0], by
	return true
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
			cs = &chainState{}
			m.chains[r.Chain] = cs
		}
		if r.Seq > cs.lastSeq+1 {
			// Early arrival: park a copy, after every parked record it
			// does not sort before, until the sequence catches up.
			i := len(cs.pending)
			for i > 0 && cs.pending[i-1].Seq > r.Seq {
				i--
			}
			cs.pending = slices.Insert(cs.pending, i, cs.keep(r))
			return
		}
		if !cs.admit(r) {
			return
		}
		// In order — the common case: apply without touching pending,
		// then whatever the arrival unblocked.
		m.apply(cs, cs.keep(r))
		if len(cs.pending) > 0 {
			m.drain(cs, false)
		}
		if !cs.mach.Open() {
			cs.chunk = nil
		}
	}
}

// drain applies the parked records the sequence has caught up with, in
// order; all of them, gaps notwithstanding, when flushing.
func (m *Monitor) drain(cs *chainState, flush bool) {
	i := 0
	for ; i < len(cs.pending) && (flush || cs.pending[i].Seq <= cs.lastSeq+1); i++ {
		rec := cs.pending[i]
		cs.pending[i] = nil
		if cs.admit(rec) {
			m.apply(cs, rec)
		}
	}
	cs.pending = cs.pending[i:]
}

// apply advances one chain's machine by one event and hands what the event
// closed to the callbacks.
func (m *Monitor) apply(cs *chainState, rec *probe.Record) {
	cs.mach.Apply(rec, &m.out)
	m.deliver(rec.Chain)
}

// deliver empties m.out into the callbacks, leaving no pointer behind: the
// scratch slices outlive the call and must not pin a delivered tree.
func (m *Monitor) deliver(chain uuid.UUID) {
	for _, a := range m.out.Anomalies {
		if m.cfg.OnAnomaly != nil {
			m.cfg.OnAnomaly(a)
		}
	}
	for i, root := range m.out.Roots {
		m.out.Roots[i] = nil
		m.complete(root, chain)
	}
	m.out.Roots, m.out.Anomalies, m.out.Broken = m.out.Roots[:0], m.out.Anomalies[:0], m.out.Broken[:0]
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
		if cs.open() {
			open++
		}
	}
	return open
}

func (cs *chainState) open() bool { return cs.mach.Open() || len(cs.pending) > 0 }

// Flush declares the stream finished (e.g. at shutdown): every open chain,
// in chain order, has its parked events applied in seq order across
// whatever gaps stalled them, and the invocations still in progress
// delivered as broken roots. All state is cleared.
func (m *Monitor) Flush() {
	m.mu.Lock()
	defer m.mu.Unlock()
	var open []uuid.UUID
	for chain, cs := range m.chains {
		if cs.open() {
			open = append(open, chain)
		}
	}
	slices.SortFunc(open, uuid.Compare)
	for _, chain := range open {
		cs := m.chains[chain]
		m.drain(cs, true)
		cs.mach.Finish(&m.out)
		m.deliver(chain)
	}
	m.chains = make(map[uuid.UUID]*chainState)
	m.links = make(map[uuid.UUID]uuid.UUID)
}
