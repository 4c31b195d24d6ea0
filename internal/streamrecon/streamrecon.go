// Package streamrecon is the collector's chain table: the one structure
// that folds per-process records into the global causal structure as they
// arrive — the paper's on-line perspective (§6) — and, given a store, also
// decides when each chain is complete and hands it to the store whole, so
// the DSCG is continuously materialized instead of reconstructed in one
// drain step when the application quiesces (the restriction §3 places on
// characterization).
//
// Every record is copied once, into its chain's chunks, and applied once to
// its chain's Figure-4 machine (analysis.ChainMachine) in sequence-number
// order: records that arrive early are parked until the sequence catches
// up. The moment a top-level invocation closes, its subtree goes to OnRoot
// (and OnSlow, Metrics, RecentRoots) with latency computed. Both
// configurations are the one type:
//
//   - Without a Store (NewMonitor) the table is the live monitor alone: it
//     holds a chain only while an invocation is open or a record parked,
//     and lets its chunks go with it, so a delivered tree and its records
//     are the callback's to keep. Ticks judge the chains it holds as below,
//     but report nothing to a ledger or feed.
//     FlushOpen declares the stream finished: parked records are applied
//     across their gaps, open invocations delivered broken, and the table
//     has then delivered what analysis.ParseChainEvents reports for the
//     records it applied.
//   - With a Store (New) the table keeps every record of a chain until the
//     chain leaves it. A delivered tree points into chunks that are
//     recycled once its chain is evicted, and its nodes are reused as soon
//     as the callbacks return: callbacks must not keep it. When nothing
//     watches roots (no OnRoot, OnSlow, OnAnomaly or Metrics), a chain's
//     records meet its machine only once the chain goes quiet, at the Tick
//     that judges it — same cursor, same order, same verdict, without
//     holding half-built trees for every chain in flight.
//
// # The cursor
//
// Each chain's cursor is the newest applied seq and who emitted the events
// applied there. An arrival above the next seq parks; one at the next seq
// applies, then whatever it unblocked. At the cursor's own seq a record
// from a different emitter is the other half of a tie (an error-path
// stub_end shares its seq with the server's skel_start) and applies; one
// from the same emitter, or any record below the cursor, is taken for a
// resend and refused. The store is still handed every record.
//
// # Completion
//
// A driver calls Tick. A chain quiescent for Config.Quiescence with no
// invocation open, nothing parked and nothing refused is evicted at once:
// its verdict — roots, nodes, the slowest root, broken and anomalous flags —
// was tallied as its roots closed. A quiescent chain that still parks
// records (a retry renumbered a call at the ORB's seq stride, or a process
// is late) or whose cursor refused one is judged by a full parse of its
// records in seq order, once per change; it leaves when that parse is
// clean. Sequence contiguity is not required of a complete chain: retries
// leave legitimate gaps. A chain that goes Config.StaleAfter without a new
// record, or is held that long after a parse found it incomplete, leaves
// as broken, its open invocations delivered to OnRoot as broken roots, as
// FlushOpen does. Stale eviction is what bounds the table under loss.
//
// # Retention
//
// At eviction the table consults a tail-retention policy
// (sampling.TailPolicy): slow, broken, and anomalous chains are always
// persisted; normal chains pass a deterministic rate test. Every record is
// accounted for in a ledger — persisted, discarded (tail policy), or still
// buffered — so the daemon can prove no record vanished uncounted:
//
//	Appended == Persisted + Discarded + Buffered
//
// The table never drops a record it was handed. What bounds it under
// overload is Backlogged: once it holds maxBuffered records the telemetry
// server refuses ship frames unacknowledged, and the shippers keep them
// until chains leave by quiescence or StaleAfter.
//
// # Stragglers and forgetting
//
// An evicted chain leaves its cursor and decision behind. A record that
// arrives for it follows the decision: a persisted chain's stragglers go
// to the store at the first Tick that finds their invocations closed (so a
// sibling root issued after an eviction still reaches the offline analyzer
// and the store-level DSCG equals the batch one), a discarded chain's are
// counted discarded; both still reach OnRoot.
//
// Cursors are remembered in two generations, the older forgotten whole
// every StaleAfter, so forgetting costs nothing per chain under the lock: a
// chain is forgotten between StaleAfter and twice that after it last left
// the table. A straggler for a forgotten chain starts it afresh: its
// cursor is at zero, so the records park until a Tick finds them quiescent
// and parsing clean, or stale, and applies them; from then on the chain's
// records apply as they arrive again. With a store such a chain is
// reported a second time, under the tail policy's verdict on what arrived
// late rather than the original decision.
//
// # Record memory
//
// Append and AppendBatch borrow their records (probe.BatchSink): the table
// copies them into fixed-size chunks from a free list it keeps. A chain
// grows by taking another chunk, never by copying what it already holds;
// when a chain leaves a table with a store, its chunks are cleared and go
// back to the list, which holds at most maxFreeChunks of them, and its
// delivered trees' nodes to a pool its machines draw on
// (analysis.NodePool). The store borrows a chunk, or the chain in seq
// order, for one Insert.
package streamrecon

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"causeway/internal/analysis"
	"causeway/internal/ftl"
	"causeway/internal/metrics"
	"causeway/internal/probe"
	"causeway/internal/sampling"
	"causeway/internal/uuid"
)

// RecordStore is the eviction destination.
type RecordStore = probe.RecordStore

// Config configures the table. Callbacks other than OnComplete run
// synchronously under the table's lock and must be fast.
type Config struct {
	// Store receives evicted chains' records; New requires it, NewMonitor
	// runs without. Each Insert is handed a chain's records in seq order —
	// one chunk at a time when they arrived in order — and borrows them:
	// they are cleared and reused once Insert returns (probe.RecordStore).
	Store RecordStore
	// Quiescence is how long a chain must go without a new record before
	// it can count as complete. Default 500ms.
	Quiescence time.Duration
	// StaleAfter evicts a still-incomplete chain as broken after this long
	// without a new record, and is how long at least the table remembers a
	// chain that left it. Default 30s.
	StaleAfter time.Duration
	// SlowThreshold fires OnSlow for a root, and marks an evicted chain
	// slow, whose compensated latency exceeds it; 0 disables both.
	SlowThreshold time.Duration
	// Tail is the retention policy applied at eviction; nil keeps every
	// chain.
	Tail *sampling.TailPolicy
	// OnComplete, when set, fires once per evicted chain, after the
	// records were handed to the store. It runs outside the table lock but
	// serialized with other evictions.
	OnComplete func(Completion)
	// FeedGen identifies this table's feed on /feedz. Completion IDs
	// restart from 1 whenever a collector restarts, so a tail that only
	// compares cursors misses a restart whose fresh feed races past its old
	// cursor; the generation changes with every table, making the restart
	// detectable regardless of cursor order. Zero derives one from the
	// clock at New.
	FeedGen uint64
	// Clock overrides time.Now for tests.
	Clock func() time.Time
	// OnRoot fires when a top-level invocation closes, cleanly or broken.
	OnRoot func(RootEvent)
	// OnSlow fires additionally for a completed root slower than
	// SlowThreshold.
	OnSlow func(RootEvent)
	// OnAnomaly fires when a chain's event matches no Figure-4 transition;
	// the event is skipped, the invocation it interrupted closes as it
	// stands, and parsing resumes with the next event.
	OnAnomaly func(analysis.Anomaly)
	// Metrics, when set, receives every completed node's compensated
	// latency via Registry.ObserveChainEx, from the same
	// ComputeLatencySubtree pass the offline analyzer runs, so the /metrics
	// quantiles agree exactly with offline InterfaceStat quantiles.
	Metrics *metrics.Registry
}

// maxBuffered is the backlog cap: a table with a store that holds this
// many records reports Backlogged, and the telemetry server refuses ship
// frames until chains leave. 1<<21 records is about 570 MB of chunk slots.
// A table holds roughly its ingest rate times Quiescence, so it pushes back
// near 4 M records/s at the default 500 ms (1 M/s at 2 s); the Figure-5
// stream at saturation has held at most 410 173, a fifth of the cap. A
// variable only so that a test can set a small cap.
var maxBuffered = 1 << 21

const (
	// feedSize bounds the completion feed ring.
	feedSize = 256
	// recentRoots bounds the ring of completed-root summaries kept for
	// introspection (/chainz).
	recentRoots = 64
)

// RootEvent describes one closed top-level invocation.
type RootEvent struct {
	// Root is the invocation subtree with latency annotated, final when
	// delivered: a root that closes cleanly arrives with its last event;
	// one the analyzer classifies broken (Root.Broken, or a Broken
	// descendant) with the event that showed a record missing, at eviction
	// or at FlushOpen.
	Root *analysis.Node
	// Chain is the causal chain the root belongs to.
	Chain uuid.UUID
	// ParentChain is set for oneway callee sides whose fork link has been
	// observed: the chain that issued the oneway call.
	ParentChain uuid.UUID
	// HasParent reports whether ParentChain is valid.
	HasParent bool
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
	// was armed, else the table's observation time.
	When time.Time
}

// Completion summarizes one evicted chain — the eviction feed's unit,
// consumed by collectd's live reporting, /feedz, and `causectl chains
// -follow`.
type Completion struct {
	ID    uint64    // monotonically increasing feed position (1-based)
	Chain uuid.UUID // the chain
	// Op is the first root's operation (the chain's entry point).
	Op probe.OpID
	// Roots and Nodes size the chain's invocation forest.
	Roots, Nodes int
	// Latency is the maximum compensated root latency, when computable.
	Latency    time.Duration
	HasLatency bool
	// Verdict flags; a chain that did not parse clean is Broken.
	Slow, Broken, Anomalous bool
	// Persisted reports whether the records reached the store; false
	// means the tail policy discarded them.
	Persisted bool
	// Reason is why the chain left the table: "complete" (quiescent with
	// every invocation closed, or judged clean), "stale", or "flush".
	Reason string
	// When is the eviction time: the clock reading of the Tick (or
	// FlushOpen) that evicted the chain.
	When time.Time
}

// Ledger is the table's record accounting snapshot. The invariant
// Appended == Persisted + Discarded + Buffered holds at every quiescent
// instant (between Append/Tick calls). A table without a store counts
// nothing.
type Ledger struct {
	Appended  uint64 // records received
	Persisted uint64 // records handed to the store
	Discarded uint64 // records dropped by the tail policy, counted
	// Shed is always zero: the table drops no record it was handed (a
	// backlogged table is pushed back on at the server instead). The field
	// stays only because the benchmark harness still reads it; it goes
	// when that harness runs the collector as a node.
	Shed     uint64
	Buffered uint64 // records currently held for open chains
}

// Chain storage comes in chunks of chunkRecs records (a little over 4 KB).
// Sixteen is measured, on ingest-saturate against 8, 15 and 32: smaller
// chunks cost more per record in chunk handling and Insert calls, larger
// ones waste more slots on the short chains that are most chains. The free
// list keeps at most maxFreeChunks of them — 64 Ki records, 20 MB — which
// is several ticks' evictions at the rates one collector sustains; chunks
// released beyond that are left to the garbage collector.
const (
	chunkRecs     = 16
	maxFreeChunks = 4096
	// maxScratchRecs bounds the records the sort scratch keeps.
	maxScratchRecs = 4096
)

type chunk [chunkRecs]probe.Record

// recBuf is an append-only run of records held in chunks; all but the last
// chunk are full.
type recBuf struct {
	chunks []*chunk
	n      int
}

func (b *recBuf) at(i int) *probe.Record { return &b.chunks[i/chunkRecs][i%chunkRecs] }

// each calls fn with every chunk's records, in order.
func (b *recBuf) each(fn func([]probe.Record)) {
	left := b.n
	for _, c := range b.chunks {
		fn(c[:min(left, chunkRecs)])
		left -= chunkRecs
	}
}

// wipe clears the records b holds, so a recycled chunk keeps no string of
// the chain that used it.
func (b *recBuf) wipe() {
	b.each(func(recs []probe.Record) { clear(recs) })
}

// Chain decisions remembered after eviction, so stragglers follow them.
type decision uint8

const (
	undecided decision = iota
	decidedPersist
	decidedDiscard
)

// emitter identifies the probe activation behind an event within one
// (chain, seq): a thread emits at most one event per sequence number.
type emitter struct {
	thread uint64
	event  ftl.Event
}

// cursor is what the table remembers of every chain it has seen: where the
// chain's sequence stands, its oneway parent, and its decision once
// evicted. It holds no pointer, so remembering a chain costs the garbage
// collector nothing.
type cursor struct {
	lastSeq uint64     // newest applied seq
	lastBy  [2]emitter // who emitted the events applied at lastSeq
	applied int        // events applied: the Anomaly.Index of the next
	last    int64      // when the newest record arrived, in Unix nanoseconds
	parent  uuid.UUID  // the chain whose oneway call forked this one
	linked  bool       // parent is set
	decided decision
}

// chain is a chain the table holds records of: its cursor, the records
// copied since it was held (with a store, all of them), the machine they
// feed, the parked early arrivals, and the verdict its closed roots add up
// to so far (Op, Roots, Nodes, Latency, Broken, Anomalous).
type chain struct {
	id uuid.UUID
	cursor
	recBuf
	mach analysis.ChainMachine
	// pending is sorted by seq, equal seqs in arrival order; it points into
	// the chunks.
	pending  []*probe.Record
	unsorted bool   // a record parked or was refused: the buffer is not in seq order
	refused  bool   // the cursor refused a record: only a full parse judges the chain
	judged   int    // records held at the last full parse that left the chain open
	offered  int    // records the cursor has looked at
	since    int64  // when the table began holding the chain, in Unix nanoseconds
	first    uint64 // the ordinal (Ledger.Appended) of the first record held
	Completion
}

// add counts a closed root of nodes nodes, latency already computed.
func (v *Completion) add(root *analysis.Node, nodes int) {
	if v.Roots == 0 {
		v.Op = root.Op
	}
	v.Roots++
	v.Nodes += nodes
	if root.HasLatency && (!v.HasLatency || root.Latency > v.Latency) {
		v.Latency, v.HasLatency = root.Latency, true
	}
}

// Assembler is the chain table. It is a probe.Sink; a driver calls Tick
// periodically — it owns no goroutine, following the repo's pattern of
// leaving scheduling to the daemon.
type Assembler struct {
	cfg Config

	// eager is set when something watches roots as they close (or there is
	// no store): records then reach their chain's cursor on arrival, not
	// when Tick looks at the quiet chain.
	eager bool

	mu sync.Mutex
	// chains holds the chains with records, what Tick visits every period.
	// cursors and older remember the rest — chains that left, and links to
	// chains not seen yet — in two generations: every StaleAfter, older is
	// forgotten whole and cursors takes its place.
	chains         map[uuid.UUID]*chain
	cursors, older map[uuid.UUID]cursor
	rotated        time.Time
	generation     uint64   // rotations of cursors into older, ever
	persistQ       recBuf   // links awaiting Tick
	queuedFirst    uint64   // the ordinal (appended) of the oldest link in persistQ
	free           []*chunk // cleared chunks awaiting reuse, at most maxFreeChunks
	// nodes supplies every store-mode machine: a delivered root's nodes
	// go back to it once the callbacks have returned.
	nodes analysis.NodePool
	// out is where chain machines leave what an event closed, emptied into
	// the callbacks after every apply.
	out analysis.ParsedChain

	// The judge's scratch: nothing a judgement builds outlives it, so one
	// machine (drawing on nodes) and one output serve every chain. keys
	// and sorted put a chain in seq order, for a judgement or an Insert,
	// under evictMu.
	mach   analysis.ChainMachine
	parsed analysis.ParsedChain
	keys   []seqAt
	sorted []probe.Record

	appended, persisted, discarded uint64
	buffered                       int
	// backlogged mirrors buffered >= maxBuffered as of the last unlock, so
	// that Backlogged — asked once per ship frame — does not queue for mu
	// behind another connection's batch.
	backlogged atomic.Bool

	feed  []Completion
	feedN uint64 // completions ever; feedN%len(feed) is the next slot

	judgements uint64 // full parses, ever

	// recent is a fixed-size ring of completed-root summaries; recentN
	// counts completions ever, so recentN % len(recent) is the next slot.
	recent  []RootSummary
	recentN uint64

	// evictMu serializes the out-of-lock half of evictions (store inserts
	// + OnComplete callbacks) so completions are delivered in feed order.
	evictMu sync.Mutex
}

var (
	_ probe.Sink      = (*Assembler)(nil)
	_ probe.SpanSink  = (*Assembler)(nil)
	_ probe.BatchSink = (*Assembler)(nil)
)

// New builds a table that evicts to cfg.Store, applying defaults.
func New(cfg Config) (*Assembler, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("streamrecon: config requires a Store")
	}
	return NewMonitor(cfg), nil
}

// NewMonitor builds a table, applying defaults; without cfg.Store it is
// the live monitor alone.
func NewMonitor(cfg Config) *Assembler {
	if cfg.Quiescence <= 0 {
		cfg.Quiescence = 500 * time.Millisecond
	}
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = 30 * time.Second
	}
	cfg.StaleAfter = max(cfg.StaleAfter, cfg.Quiescence)
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.FeedGen == 0 {
		cfg.FeedGen = uint64(cfg.Clock().UnixNano())
	}
	a := &Assembler{
		cfg:     cfg,
		eager:   cfg.Store == nil || cfg.OnRoot != nil || cfg.OnSlow != nil || cfg.OnAnomaly != nil || cfg.Metrics != nil,
		chains:  make(map[uuid.UUID]*chain),
		cursors: make(map[uuid.UUID]cursor),
		rotated: cfg.Clock(),
		feed:    make([]Completion, feedSize),
		recent:  make([]RootSummary, recentRoots),
	}
	a.mach.Pool = &a.nodes
	return a
}

// Append implements probe.Sink.
func (a *Assembler) Append(r probe.Record) {
	a.mu.Lock()
	defer a.unlock()
	a.appendLocked(&r, a.cfg.Clock())
}

// AppendSpan implements probe.SpanSink: the records of one invocation span
// apply under a single lock acquisition.
func (a *Assembler) AppendSpan(recs []probe.Record) { a.AppendBatch(recs) }

// AppendBatch implements probe.BatchSink: a ship frame's records — any mix
// of chains — apply in order under one lock acquisition and one clock
// reading.
func (a *Assembler) AppendBatch(recs []probe.Record) {
	a.mu.Lock()
	defer a.unlock()
	now := a.cfg.Clock()
	for i := range recs {
		a.appendLocked(&recs[i], now)
	}
}

// unlock releases a.mu after an append or an eviction pass, noting first
// whether the table is backlogged.
func (a *Assembler) unlock() {
	a.backlogged.Store(a.buffered >= maxBuffered)
	a.mu.Unlock()
}

// appendLocked takes one record that arrived at now. Called under a.mu.
func (a *Assembler) appendLocked(r *probe.Record, now time.Time) {
	store, at := a.cfg.Store != nil, now.UnixNano()
	if store {
		a.appended++
	}
	if r.Kind == probe.KindLink {
		if c := a.chains[r.LinkChild]; c != nil {
			c.parent, c.linked = r.LinkParent, true
		} else {
			cur := a.recall(r.LinkChild)
			cur.parent, cur.linked, cur.last = r.LinkParent, true, max(cur.last, at)
			a.cursors[r.LinkChild] = cur
		}
		if store {
			// Links are store metadata: forward on the next Tick. A link
			// whose parent chain is later discarded is harmless —
			// ChildChain is only consulted for nodes that exist.
			if a.persistQ.n == 0 {
				a.queuedFirst = a.appended
			}
			a.push(&a.persistQ, r)
			a.buffered++
		}
		return
	}
	c := a.chains[r.Chain]
	if c == nil {
		c = a.hold(r.Chain, a.recall(r.Chain), at)
		c.first = a.appended
	}
	c.last = at
	a.push(&c.recBuf, r)
	if a.eager {
		a.catchUp(c)
	}
	if !store {
		if !c.mach.Open() && len(c.pending) == 0 {
			a.unhold(c) // the chunks go with the chain: the callbacks may keep what was built on them
		}
		return
	}
	if c.decided == decidedDiscard {
		a.discarded++
	} else {
		a.buffered++
	}
}

// recall takes chain id's cursor out of the generation that remembers it;
// a chain forgotten, or never seen, gets a zero cursor. Called under a.mu.
func (a *Assembler) recall(id uuid.UUID) cursor {
	for _, gen := range [2]map[uuid.UUID]cursor{a.cursors, a.older} {
		if cur, ok := gen[id]; ok {
			delete(gen, id)
			return cur
		}
	}
	return cursor{}
}

// hold starts holding records of chain id from its cursor, at. Called
// under a.mu.
func (a *Assembler) hold(id uuid.UUID, cur cursor, at int64) *chain {
	c := &chain{id: id, cursor: cur, since: at}
	c.mach.Applied = cur.applied
	if a.cfg.Store != nil {
		c.mach.Pool = &a.nodes
	}
	a.chains[id] = c
	return c
}

// unhold stops holding c's records, remembering its cursor. Called under
// a.mu.
func (a *Assembler) unhold(c *chain) {
	delete(a.chains, c.id)
	c.applied = c.mach.Applied
	a.cursors[c.id] = c.cursor
}

// catchUp offers c's cursor every record that arrived since it last
// looked, in arrival order: an early one parks, after every parked record
// it does not sort before, until the sequence catches up; one the cursor
// refuses is marked; one in order — the common case — applies, then
// whatever it unblocked. Called under a.mu.
func (a *Assembler) catchUp(c *chain) {
	for ; c.offered < c.n; c.offered++ {
		rec := c.at(c.offered)
		switch {
		case rec.Seq > c.lastSeq+1:
			i := len(c.pending)
			for i > 0 && c.pending[i-1].Seq > rec.Seq {
				i--
			}
			c.pending = slices.Insert(c.pending, i, rec)
			c.unsorted = true
		case !c.admit(rec):
			c.refused, c.unsorted = true, true
		default:
			a.apply(c, rec)
			if len(c.pending) > 0 {
				a.drain(c, false)
			}
		}
	}
}

// push copies r to the end of b — the one copy of the record the table
// owns — in a chunk from the free list when b's last is full. Called under
// a.mu.
func (a *Assembler) push(b *recBuf, r *probe.Record) {
	if b.n == len(b.chunks)*chunkRecs {
		var c *chunk
		if n := len(a.free); n > 0 {
			c, a.free[n-1] = a.free[n-1], nil
			a.free = a.free[:n-1]
		} else {
			c = new(chunk)
		}
		b.chunks = append(b.chunks, c)
	}
	*b.at(b.n) = *r
	b.n++
}

// admit moves the cursor to r and reports whether r is to be applied: not
// a resend of a record applied at the cursor, and not any record below it,
// where a resend cannot be told from the second half of a tie that arrived
// after the chain moved on.
func (c *cursor) admit(r *probe.Record) bool {
	by := emitter{r.Thread, r.Event}
	switch {
	case r.Seq > c.lastSeq:
		c.lastSeq, c.lastBy = r.Seq, [2]emitter{by}
		return true
	case r.Seq < c.lastSeq || by == c.lastBy[0] || by == c.lastBy[1]:
		return false
	}
	c.lastBy[1], c.lastBy[0] = c.lastBy[0], by
	return true
}

// drain applies the parked records the sequence has caught up with, in
// order; all of them, gaps notwithstanding, when flushing.
func (a *Assembler) drain(c *chain, flush bool) {
	i := 0
	for ; i < len(c.pending) && (flush || c.pending[i].Seq <= c.lastSeq+1); i++ {
		if rec := c.pending[i]; c.admit(rec) {
			a.apply(c, rec)
		} else {
			c.refused = true
		}
	}
	c.pending = slices.Delete(c.pending, 0, i)
}

// apply advances c's machine by one event and delivers what it closed.
func (a *Assembler) apply(c *chain, rec *probe.Record) {
	c.mach.Apply(rec, &a.out)
	a.deliver(c)
}

// finishChain applies everything c holds, parked records across their
// gaps, and closes the invocations still open as broken roots: c is
// leaving the table.
func (a *Assembler) finishChain(c *chain) {
	a.catchUp(c)
	a.drain(c, true)
	c.mach.Finish(&a.out)
	a.deliver(c)
}

// deliver empties a.out into c's verdict and the callbacks, leaving no
// pointer behind: the scratch slices outlive the call and must not pin a
// delivered tree. In store mode the tree's nodes then go back to the pool.
func (a *Assembler) deliver(c *chain) {
	if len(a.out.Roots) == 0 && len(a.out.Anomalies) == 0 && len(a.out.Broken) == 0 {
		return // most events close nothing
	}
	c.Broken = c.Broken || len(a.out.Broken) > 0
	c.Anomalous = c.Anomalous || len(a.out.Anomalies) > 0
	for _, an := range a.out.Anomalies {
		if a.cfg.OnAnomaly != nil {
			a.cfg.OnAnomaly(an)
		}
	}
	for i, root := range a.out.Roots {
		a.out.Roots[i] = nil
		a.complete(c, root)
		if a.cfg.Store != nil {
			a.nodes.Put(root)
		}
	}
	a.out.Roots, a.out.Anomalies, a.out.Broken = a.out.Roots[:0], a.out.Anomalies[:0], a.out.Broken[:0]
}

// complete counts a closed top-level invocation and fires the callbacks
// for it. The chain rides along as the exemplar identity: when the
// registry has exemplars armed, a latency bucket remembers which causal
// chain last landed in it, stamped with the root's closing wall time
// (observation time when the latency aspect was off).
func (a *Assembler) complete(c *chain, root *analysis.Node) {
	analysis.ComputeLatencySubtree(root)
	when := rootEnd(root)
	if when.IsZero() {
		when = time.Now()
	}
	whenNanos := when.UnixNano()
	nodes := 0
	root.Walk(func(n *analysis.Node) {
		nodes++
		if a.cfg.Metrics != nil && n.HasLatency {
			a.cfg.Metrics.ObserveChainEx(n.Op.Interface, n.Latency, metrics.ChainID(c.id), whenNanos)
		}
	})
	c.add(root, nodes)
	a.recent[a.recentN%uint64(len(a.recent))] = RootSummary{
		Op: root.Op, Chain: c.id, Oneway: root.Oneway,
		Nodes: nodes, Latency: root.Latency, HasLatency: root.HasLatency,
		When: when,
	}
	a.recentN++

	ev := RootEvent{Root: root, Chain: c.id, ParentChain: c.parent, HasParent: c.linked}
	if a.cfg.OnRoot != nil {
		a.cfg.OnRoot(ev)
	}
	if a.cfg.OnSlow != nil && a.cfg.SlowThreshold > 0 &&
		root.HasLatency && root.Latency > a.cfg.SlowThreshold {
		a.cfg.OnSlow(ev)
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

// recycle returns a wiped buffer's chunks to the free list, up to its
// bound; the buffer is not used again. Called under a.mu.
func (a *Assembler) recycle(b recBuf) {
	a.free = append(a.free, b.chunks[:min(maxFreeChunks-len(a.free), len(b.chunks))]...)
}

// eviction is one chain's records leaving the table, prepared under the
// lock and finished (store insert, callback, recycling) outside it.
type eviction struct {
	comp    Completion
	notify  bool // comp is a completion to deliver; false for stragglers
	persist bool // the records go to the store
	c       *chain
}

// Tick advances time-based processing: it flushes the link queue, evicts
// every quiescent chain that is complete and every chain gone stale,
// releases stragglers, forgets the older generation of cursors once it is
// StaleAfter old, and returns how many chains were evicted. The collection
// daemon calls Tick from its reporting loop; tests call it with a fake
// clock.
func (a *Assembler) Tick() int {
	now := a.cfg.Clock()
	// Serialize the out-of-lock half before preparing evictions so
	// concurrent Ticks deliver completions in feed order.
	a.evictMu.Lock()
	defer a.evictMu.Unlock()

	a.mu.Lock()
	flush := a.takePersistQLocked()
	var evs []eviction
	for _, c := range a.chains {
		idle := time.Duration(now.UnixNano() - c.last)
		if c.decided == undecided && idle < a.cfg.Quiescence {
			continue
		}
		a.catchUp(c)
		if c.decided != undecided {
			if idle >= a.cfg.StaleAfter || !c.mach.Open() && len(c.pending) == 0 {
				evs = append(evs, a.releaseLocked(c))
			}
			continue
		}
		// Stale: silent for StaleAfter, or held that long and already found
		// incomplete — a chain whose cursor was forgotten mid-invocation
		// never parses clean, however often it is called.
		stale := idle >= a.cfg.StaleAfter || c.judged > 0 && time.Duration(now.UnixNano()-c.since) >= a.cfg.StaleAfter
		if ev, ok := a.judgeLocked(c, now, stale, "stale"); ok {
			evs = append(evs, ev)
		}
	}
	if now.Sub(a.rotated) >= a.cfg.StaleAfter {
		a.rotated, a.older, a.cursors = now, a.cursors, make(map[uuid.UUID]cursor)
		a.generation++
	}
	a.unlock()

	return a.finish(flush, evs)
}

// judgeLocked decides whether c, quiescent, leaves the table: when every
// invocation closed with nothing parked or refused, on the verdict its
// roots left; otherwise by a full parse (once per change), when that is
// clean; always when force is set. A leaving chain has what it parks
// applied and what is open delivered broken; with a store it then gets the
// tail policy's decision, moves the ledger, and is pushed to the feed,
// stamped now. Called under a.mu.
func (a *Assembler) judgeLocked(c *chain, now time.Time, force bool, forceReason string) (eviction, bool) {
	a.catchUp(c)
	settled := !c.mach.Open() && len(c.pending) == 0
	var comp Completion
	parsed := len(c.pending) > 0 || c.refused
	if parsed {
		if !force && !settled && c.judged == c.n {
			return eviction{}, false // nothing arrived since it was last found incomplete
		}
		comp = a.judge(&c.recBuf)
		if !force && !settled && (comp.Broken || comp.Anomalous) {
			c.judged = c.n
			return eviction{}, false
		}
	} else if !force && !settled {
		return eviction{}, false
	}
	a.finishChain(c)
	if a.cfg.Store == nil {
		a.unhold(c)
		return eviction{}, false
	}
	if !parsed {
		comp = c.Completion
	}

	comp.Chain, comp.Reason, comp.When = c.id, "complete", now
	if comp.Broken || comp.Anomalous {
		comp.Broken = true
		if force {
			comp.Reason = forceReason
		}
	}
	comp.Slow = a.cfg.SlowThreshold > 0 && comp.HasLatency && comp.Latency > a.cfg.SlowThreshold
	comp.Persisted = a.cfg.Tail == nil || a.cfg.Tail.Retain(sampling.ChainVerdict{
		Chain: c.id, Slow: comp.Slow, Broken: comp.Broken, Anomalous: comp.Anomalous,
	})

	a.buffered -= c.n
	if comp.Persisted {
		c.decided = decidedPersist
		a.persisted += uint64(c.n)
	} else {
		c.decided = decidedDiscard
		a.discarded += uint64(c.n)
	}
	a.unhold(c)
	a.pushFeedLocked(comp)
	return eviction{comp: comp, notify: true, persist: comp.Persisted, c: c}, true
}

// releaseLocked lets an evicted chain's stragglers follow its decision:
// what they left open is delivered broken, and a persisted chain's records
// go to the store. Called under a.mu.
func (a *Assembler) releaseLocked(c *chain) eviction {
	a.finishChain(c)
	a.unhold(c)
	persist := c.decided == decidedPersist
	if persist {
		a.buffered -= c.n
		a.persisted += uint64(c.n)
	}
	return eviction{persist: persist, c: c}
}

// judge is the full parse: every record b holds, in seq order, through the
// judge's machine. Called under a.mu and evictMu.
func (a *Assembler) judge(b *recBuf) Completion {
	a.judgements++
	p := &a.parsed
	p.Roots, p.Broken, p.Anomalies = p.Roots[:0], p.Broken[:0], p.Anomalies[:0]
	a.mach.Recycle()
	recs := a.inOrder(b)
	for i := range recs {
		a.mach.Apply(&recs[i], p)
	}
	a.mach.Finish(p)
	v := Completion{Broken: len(p.Broken) > 0, Anomalous: len(p.Anomalies) > 0}
	for i, r := range p.Roots {
		analysis.ComputeLatencySubtree(r)
		v.add(r, r.Count())
		a.nodes.Put(r)
		p.Roots[i] = nil
	}
	return v
}

// seqAt is one record's sort key: its seq and where it sits in the chain's
// buffer. Sixteen bytes move per comparison's swap, not the record's 272.
type seqAt struct {
	seq uint64
	at  int
}

// inOrder copies b's records into the table's scratch in seq order, equal
// seqs in arrival order. The copy is valid until the next call. Called
// under evictMu.
func (a *Assembler) inOrder(b *recBuf) []probe.Record {
	keys, recs := a.keys[:0], a.sorted[:0]
	for i := 0; i < b.n; i++ {
		keys = append(keys, seqAt{b.at(i).Seq, i})
	}
	slices.SortFunc(keys, func(x, y seqAt) int {
		if c := cmp.Compare(x.seq, y.seq); c != 0 {
			return c
		}
		return cmp.Compare(x.at, y.at)
	})
	for _, k := range keys {
		recs = append(recs, *b.at(k.at))
	}
	// Kept for the next chain, unless one enormous chain sized them.
	if a.keys, a.sorted = keys, recs; len(keys) > maxScratchRecs {
		a.keys, a.sorted = nil, nil
	}
	return recs
}

// takePersistQLocked detaches the link queue. Called under a.mu.
func (a *Assembler) takePersistQLocked() recBuf {
	q := a.persistQ
	a.persistQ = recBuf{}
	a.buffered -= q.n
	a.persisted += uint64(q.n)
	return q
}

// finish runs the out-of-lock half of evictions — store inserts and
// completion callbacks, then the return of every chunk to the free list —
// and returns the number of completions. Caller holds evictMu.
func (a *Assembler) finish(flush recBuf, evs []eviction) int {
	insert := func(recs []probe.Record) { a.cfg.Store.Insert(recs...) }
	flush.each(insert)
	completions := 0
	for _, ev := range evs {
		switch {
		case ev.persist && ev.c.unsorted:
			recs := a.inOrder(&ev.c.recBuf)
			insert(recs)
			clear(recs)
		case ev.persist:
			ev.c.each(insert)
		}
		if ev.notify {
			completions++
			if a.cfg.OnComplete != nil {
				a.cfg.OnComplete(ev.comp)
			}
		}
	}
	if flush.n == 0 && len(evs) == 0 {
		return 0
	}
	flush.wipe()
	for _, ev := range evs {
		ev.c.wipe()
	}
	a.mu.Lock()
	a.recycle(flush)
	for _, ev := range evs {
		a.recycle(ev.c.recBuf)
	}
	a.mu.Unlock()
	return completions
}

// pushFeedLocked stamps the completion's feed id and stores it in the
// ring. Called under a.mu.
func (a *Assembler) pushFeedLocked(c Completion) {
	a.feedN++
	c.ID = a.feedN
	a.feed[(a.feedN-1)%uint64(len(a.feed))] = c
}

// FlushOpen declares the stream finished — the drain path — and returns
// how many chains were evicted. Every chain the table holds, in chain
// order, has its parked records applied across its gaps and its open
// invocations delivered broken. With a store, each then leaves: complete
// when it parses clean, otherwise broken with reason "flush". Without one,
// the table forgets every chain.
func (a *Assembler) FlushOpen() int { return a.flush(nil) }

// EvictWhere is FlushOpen for the chains match selects, and the queued
// links: they leave for the store now, as at a drain, so that what the
// store holds of them is all the table had. A collector calls it before a
// hash range moves to another owner, or arrives from one.
func (a *Assembler) EvictWhere(match func(chain uuid.UUID) bool) int {
	return a.flush(match)
}

// flush evicts the chains match selects, every chain when match is nil.
func (a *Assembler) flush(match func(uuid.UUID) bool) int {
	a.evictMu.Lock()
	defer a.evictMu.Unlock()

	a.mu.Lock()
	flush := a.takePersistQLocked()
	held := make([]*chain, 0, len(a.chains))
	for id, c := range a.chains {
		if match == nil || match(id) {
			held = append(held, c)
		}
	}
	slices.SortFunc(held, func(x, y *chain) int { return uuid.Compare(x.id, y.id) })
	now := a.cfg.Clock()
	var evs []eviction
	for _, c := range held {
		if c.decided != undecided {
			evs = append(evs, a.releaseLocked(c))
		} else if ev, ok := a.judgeLocked(c, now, true, "flush"); ok {
			evs = append(evs, ev)
		}
	}
	if a.cfg.Store == nil && match == nil {
		a.cursors, a.older = make(map[uuid.UUID]cursor), nil
	}
	a.unlock()

	return a.finish(flush, evs)
}

// Quiescence is how long a chain must go quiet before the table counts it
// complete: Config.Quiescence, or its default. A driver that ticks at a
// fraction of it lets a complete chain leave within about that much more.
func (a *Assembler) Quiescence() time.Duration { return a.cfg.Quiescence }

// Generation counts the table's generations: it advances at the Tick that
// forgets the older generation of cursors, once every StaleAfter.
func (a *Assembler) Generation() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.generation
}

// HeldFrom returns the ordinal of the oldest record the table holds for
// the store — its place in arrival order, the Ledger's Appended count once
// it arrived — and false when the table holds none. Every record that
// arrived before it has reached the store or been counted out of it: a
// collector that keeps records' bytes elsewhere until then may drop those
// bytes once it has flushed the store. It waits for evictions in progress.
func (a *Assembler) HeldFrom() (uint64, bool) {
	a.evictMu.Lock()
	defer a.evictMu.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	oldest, held := a.queuedFirst, a.persistQ.n > 0
	for _, c := range a.chains {
		if !held || c.first < oldest {
			oldest, held = c.first, true
		}
	}
	return oldest, held
}

// SetMetrics attaches a registry to feed compensated chain latencies into;
// a no-op when one is already attached, so the first process of a
// deployment sharing one monitor wins.
func (a *Assembler) SetMetrics(reg *metrics.Registry) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cfg.Metrics == nil {
		a.cfg.Metrics, a.eager = reg, true
	}
}

// RecentRoots returns up to the last recentRoots completed top-level
// invocations, newest first — the /chainz data source.
func (a *Assembler) RecentRoots() []RootSummary {
	a.mu.Lock()
	defer a.mu.Unlock()
	capN := uint64(len(a.recent))
	out := make([]RootSummary, 0, min(a.recentN, capN))
	for i := uint64(1); i <= min(a.recentN, capN); i++ {
		out = append(out, a.recent[(a.recentN-i)%capN])
	}
	return out
}

// Feed returns completions with ID > sinceID, oldest first, up to limit
// (limit <= 0 means the whole retained window), plus the newest ID seen —
// the cursor a poller passes back. Completions older than the ring window
// are gone; the poller observes the gap by the ID jump.
func (a *Assembler) Feed(sinceID uint64, limit int) ([]Completion, uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	newest, capN := a.feedN, uint64(len(a.feed))
	from := max(sinceID, newest-min(newest, capN))
	if limit > 0 {
		from = max(from, newest-min(newest, uint64(limit)))
	}
	var out []Completion
	for id := from + 1; id <= newest; id++ {
		out = append(out, a.feed[(id-1)%capN])
	}
	return out, newest
}

// OpenChains reports the chains still in progress: those the table holds
// records of — with a store, stragglers of evicted chains among them;
// without, those with an invocation open or records parked. It is the
// backlog signal the sampling governor steers by, and what management
// layers poll to spot hangs.
func (a *Assembler) OpenChains() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.chains)
}

// Backlogged reports whether a table with a store holds maxBuffered records
// or more: the telemetry server then refuses ship frames, unacknowledged,
// until chains leave by quiescence or StaleAfter. A table without a store
// is never backlogged.
func (a *Assembler) Backlogged() bool { return a.backlogged.Load() }

// Ledger snapshots the record accounting.
func (a *Assembler) Ledger() Ledger {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ledgerLocked()
}

func (a *Assembler) ledgerLocked() Ledger {
	return Ledger{
		Appended:  a.appended,
		Persisted: a.persisted,
		Discarded: a.discarded,
		Buffered:  uint64(a.buffered),
	}
}

// Completions reports how many chains ever left the table.
func (a *Assembler) Completions() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.feedN
}

// WriteMetrics emits the table's state in text exposition format for the
// metrics plane.
func (a *Assembler) WriteMetrics(w io.Writer) {
	a.mu.Lock()
	open, led, completions, judgements := len(a.chains), a.ledgerLocked(), a.feedN, a.judgements
	a.mu.Unlock()
	fmt.Fprintf(w, "causeway_assembler_open_chains %d\n", open)
	fmt.Fprintf(w, "causeway_assembler_records_appended_total %d\n", led.Appended)
	fmt.Fprintf(w, "causeway_assembler_records_persisted_total %d\n", led.Persisted)
	fmt.Fprintf(w, "causeway_assembler_records_discarded_total %d\n", led.Discarded)
	fmt.Fprintf(w, "causeway_assembler_records_buffered %d\n", led.Buffered)
	fmt.Fprintf(w, "causeway_assembler_chains_completed_total %d\n", completions)
	fmt.Fprintf(w, "causeway_assembler_chains_judged_total %d\n", judgements)
}
