// Package streamrecon is the collector's chain table: the one structure
// that folds per-process records into the global causal structure as they
// arrive — the paper's on-line perspective (§6) — and, given a store, also
// decides when each chain is complete and hands it to the store whole, so
// the DSCG is continuously materialized instead of reconstructed in one
// drain step when the application quiesces (the restriction §3 places on
// characterization).
//
// Every record is converted once, into its chain's chunks, and applied once
// to its chain's Figure-4 machine (analysis.ChainMachine) in sequence-number
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
//     records meet its machine only once the chain goes quiet, at the pass
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
// A chain quiescent for Config.Quiescence with no invocation open, nothing
// parked and nothing refused is evicted by the first pass after its
// quiescence ends: its verdict — roots, nodes, the slowest root, broken and
// anomalous flags — was tallied as its roots closed. A quiescent chain that
// still parks records (a retry renumbered a call at the ORB's seq stride,
// or a process is late) or whose cursor refused one is judged by a full
// parse of its records in seq order, once per change; it leaves when that
// parse is clean. Sequence contiguity is not required of a complete chain:
// retries leave legitimate gaps. A chain that goes Config.StaleAfter
// without a new record, or is held that long after a parse found it
// incomplete, leaves as broken at the next Tick, its open invocations
// delivered to OnRoot as broken roots, as FlushOpen does. Stale eviction
// is what bounds the table under loss.
//
// # Passes
//
// The table keeps the chains it holds in order of their last record. A
// pass walks that order from the least recent chain and stops at the first
// not yet quiet, so it costs what has gone quiet, not what is held. A
// quiet chain it finds incomplete waits apart, in order of when it goes
// stale, until a record arrives for it (back to the end of the order) or a
// Tick finds it stale; no pass judges it again in between. Every door with
// a store runs a pass after the records it took, when the least recent
// chain went quiet by then — so while records arrive, a complete chain
// leaves at the first after its quiescence ends — unless another pass is
// running: a frame never waits behind another pass's store writes, and the
// pass it skips falls to the next arrival or Tick. A driver calls Tick,
// which also runs the pass, for a table nothing arrives at, and for what
// only time moves: staleness, stragglers, the link queue on an idle table,
// and forgetting. Completions stay serialized, in feed order. A table
// without a store passes only in Tick: it holds a chain only while
// something of it is open, and an application's probes may feed it.
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
// counted discarded; both still reach OnRoot. Every Tick visits the chains
// that hold stragglers, quiet or not; no door's pass does.
//
// Cursors are remembered in two generations, the older forgotten whole
// every StaleAfter, so forgetting costs nothing per chain under the lock: a
// chain is forgotten between StaleAfter and twice that after it last left
// the table. A new generation is made as large as the one it replaces,
// so remembering the chains that leave next does not regrow it. A
// straggler for a forgotten chain starts it afresh: its cursor is at zero,
// so the records park until a pass finds them quiescent and parsing clean,
// or a Tick finds them stale, and applies them; from then on the chain's
// records apply as they arrive again. With a store such a chain is
// reported a second time, under the tail policy's verdict on what arrived
// late rather than the original decision.
//
// # Record memory
//
// Every door borrows its records. AppendFrame (probe.FrameSink) is the
// telemetry server's: a ship frame decoded once, its records converted
// straight from it into their chains' chunks, each string of the frame's
// table mapped into a generation of symbols the first time a record of the
// frame names it — one hash per distinct string a frame, not one per
// record. Append, AppendSpan and AppendBatch are the Record doors, for a
// caller in the process: each record converted through
// probe.SymbolTable.Convert. Either way a chain holds each record once, as
// a probe.Compact — the record's scalars and the symbol ids of its
// strings, 104 bytes and no pointer — so that what a chain costs follows
// its records and the garbage collector never scans them. The strings are
// interned in the chain's symbols: the table's current generation when the
// chain was held. A generation holding maxSymbols strings or
// maxSymbolBytes bytes gives way to a fresh one for later chains, and goes
// once its last chain has left, so a flood of new names costs a bounded
// few generations, not memory without end. The first chunk, the head,
// holds four records — one synchronous call — and every later one sixteen;
// a chain grows by taking another chunk, never by copying what it already
// holds. When a chain leaves a table with a store, its chunks are cleared
// and go back to a free list for their size, its delivered trees' nodes to
// a pool its machines draw on (analysis.NodePool), and the chain itself —
// its chunk list, machine stack and early-arrival list — to a spare list
// the next chain starts from; every list is bounded. So once primed, a
// table with a store allocates nothing per chain but a Semantics' symbol;
// one without allocates only what its callbacks may keep, a chain's head
// and its trees' nodes. A chain's place in the table's order is in the
// chain itself — two links, or an index into the heap of waiting chains —
// so keeping that order allocates nothing either. The store borrows a
// chain's records in seq order,
// copied into the table's scratch, for one call: a store with the compact
// door (probe.CompactStore, the trace store) takes them as they are held,
// with the chain's symbol table, so no string is resolved or hashed on the
// way to disk; any other store gets them resolved into Records for one
// Insert. Links never reach a machine: the queued links stay whole
// records, and go a chunk at a time.
package streamrecon

import (
	"cmp"
	"container/heap"
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
	// runs without. Each Insert is handed one chain's records in seq order,
	// or a chunk of the links that arrived since the last pass, and borrows
	// them: they are cleared and reused once Insert returns
	// (probe.RecordStore).
	Store RecordStore
	// Quiescence is how long a chain must go without a new record before
	// it can count as complete. A complete chain leaves at the first record
	// the table takes after that, or, when none arrives, at the next Tick.
	// Default 500ms.
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
	// serialized with other evictions, in feed order: in Tick, FlushOpen or
	// EvictWhere, or in the door (Append, AppendBatch, AppendFrame) whose
	// records' arrival found the chain quiet.
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

// A generation of symbols is current until it holds maxSymbols strings or
// maxSymbolBytes bytes of them; chains held from then on intern in a fresh
// one, and the old one goes once its last chain has left. The Figure-5
// stream's whole vocabulary is 1 316 strings of 9 981 bytes, so without
// Semantics a collector keeps one generation; with it, or under a flood of
// new names, what the table's symbols hold stays near these bounds per
// generation its chains still use.
const (
	maxSymbols     = 1 << 14
	maxSymbolBytes = 1 << 20
)

// maxBuffered is the backlog cap: a table with a store that holds this
// many records reports Backlogged, and the telemetry server refuses ship
// frames until chains leave. 1<<21 records fill about 220 MB of 104-byte
// chunk slots; a chain's last chunk is partly empty, so at worst four
// slots hold each record (a one-record chain's head, or a five-record
// chain's head and chunk): 870 MB, and their Semantics beside them.
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
	// or at FlushOpen. Its strings resolve through Root.Syms, the table's
	// generation of symbols when the chain was held: a root kept past the
	// callback keeps that whole generation, shared with every other chain
	// held in it: up to 16 Ki strings or 1 MiB of them, and their index. With a store, the nodes and records are recycled once
	// the callbacks return, so a root must not be kept at all.
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
	// When is the eviction time: the clock reading of the pass — a door's,
	// a Tick's, or FlushOpen's — that evicted the chain.
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

// Chain storage comes in two sizes. A chain's first chunk holds headRecs
// compact records — one synchronous call, the most common chain there is,
// in 416 bytes — and every later one chunkRecs (1.7 KB). Sixteen is
// measured, on ingest-saturate against 8, 15 and 32: smaller chunks cost
// more per record in chunk handling, larger ones waste more slots on the
// short chains that are most chains. Each size has its free list, of at
// most maxFreeChunks: 16 Ki records in heads and 64 Ki in chunks, under
// 9 MB together, several ticks' evictions at the rates one collector
// sustains; chunks released beyond that are left to the garbage collector.
// The link queue's chunks hold whole records, 4.3 KB a chunk, and keep a
// list of their own of at most maxFreeLinkChunks (4.4 MB).
// A chain that left keeps its own storage — its chunk list, machine stack
// and early-arrival list — for the next chain, on a list of at most
// maxSpareChains, after giving up a chunk list grown past maxSpareChunks
// or an early-arrival list grown past maxSparePending.
const (
	headRecs          = 4
	chunkRecs         = 16
	maxFreeChunks     = 4096
	maxFreeLinkChunks = 1024
	maxSpareChains    = 4096
	maxSpareChunks    = 32
	maxSparePending   = 256
	// maxScratchRecs bounds what the sort scratch keeps, in records, and
	// the eviction list, in chains.
	maxScratchRecs = 4096
)

type (
	head      [headRecs]probe.Compact
	chunk     [chunkRecs]probe.Compact
	linkChunk [chunkRecs]probe.Record
)

// recBuf is an append-only run of compact records: the first headRecs in a
// head, the rest in chunks. All but the last are full.
type recBuf struct {
	head   *head
	chunks []*chunk
	n      int
}

// linkQ is the link queue: records in chunks, all but the last full. Links
// never reach a machine, so they stay whole records.
type linkQ struct {
	chunks []*linkChunk
	n      int
}

// each calls fn with every chunk's records, in order.
func (q *linkQ) each(fn func([]probe.Record)) {
	left := q.n
	for _, c := range q.chunks {
		fn(c[:min(left, chunkRecs)])
		left -= chunkRecs
	}
}

func (b *recBuf) at(i int) *probe.Compact {
	if i < headRecs {
		return &b.head[i]
	}
	i -= headRecs
	return &b.chunks[i/chunkRecs][i%chunkRecs]
}

// wipe clears the records b holds, so that a recycled chunk remembers
// nothing of the chain that used it.
func (b *recBuf) wipe() {
	if b.head == nil {
		return
	}
	clear(b.head[:min(b.n, headRecs)])
	left := b.n - headRecs
	for _, c := range b.chunks {
		clear(c[:min(left, chunkRecs)])
		left -= chunkRecs
	}
}

// pop takes the last entry of list, or a new T when it is empty.
func pop[T any](list *[]*T) *T {
	n := len(*list)
	if n == 0 {
		return new(T)
	}
	x := (*list)[n-1]
	(*list)[n-1] = nil
	*list = (*list)[:n-1]
	return x
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
// taken in since it was held (with a store, all of them), the machine they
// feed — whose Syms, the generation current when the chain was held, holds
// their strings — the parked early arrivals, and the verdict its closed
// roots add up to so far (Op, Roots, Nodes, Latency, Broken, Anomalous).
type chain struct {
	id uuid.UUID
	cursor
	recBuf
	mach analysis.ChainMachine
	// pending is sorted by seq, equal seqs in arrival order; it points into
	// the chunks.
	pending []*probe.Compact
	refused bool   // the cursor refused a record: only a full parse judges the chain
	judged  int    // records held at the last full parse that left the chain open
	offered int    // records the cursor has looked at
	since   int64  // when the table began holding the chain, in Unix nanoseconds
	first   uint64 // the ordinal (Ledger.Appended) of the first record held
	// Where the table keeps the chain: on list — the arrival list, in
	// order of last arrival, or the straggler list — linked through prev
	// and next; or, quiet and found incomplete, in the waiting heap at
	// index wait-1 until due, when it goes stale (Unix nanoseconds).
	prev, next *chain
	list       *chainList
	wait       int
	due        int64
	Completion
}

// chainList is a list of held chains, linked through their prev and next.
type chainList struct{ head, tail *chain }

// push puts c, which is on no list, at l's tail.
func (l *chainList) push(c *chain) {
	c.list, c.prev, c.next = l, l.tail, nil
	if l.tail != nil {
		l.tail.next = c
	} else {
		l.head = c
	}
	l.tail = c
}

// remove takes c off l.
func (l *chainList) remove(c *chain) {
	if c.prev != nil {
		c.prev.next = c.next
	} else {
		l.head = c.next
	}
	if c.next != nil {
		c.next.prev = c.prev
	} else {
		l.tail = c.prev
	}
	c.list, c.prev, c.next = nil, nil, nil
}

// waitHeap holds the quiet chains a judgement left incomplete, soonest
// due first (container/heap); each chain's wait is its index plus one.
type waitHeap []*chain

func (h waitHeap) Len() int           { return len(h) }
func (h waitHeap) Less(i, j int) bool { return h[i].due < h[j].due }
func (h waitHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].wait, h[j].wait = i+1, j+1
}
func (h *waitHeap) Push(x any) {
	c := x.(*chain)
	*h = append(*h, c)
	c.wait = len(*h)
}
func (h *waitHeap) Pop() any {
	old := *h
	c := old[len(old)-1]
	old[len(old)-1], c.wait = nil, 0
	*h = old[:len(old)-1]
	return c
}

// add counts a closed root of nodes nodes, latency already computed.
func (v *Completion) add(root *analysis.Node, nodes int) {
	if v.Roots == 0 {
		v.Op = root.Op()
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
	// when a pass looks at the quiet chain.
	eager bool

	mu sync.Mutex
	// chains holds the chains with records, by id. Each is in one of three
	// places: arrived, the chains not yet judged since their last record,
	// least recent first, which a pass walks only as far as the chains gone
	// quiet; waiting, the quiet chains a judgement left incomplete, which
	// only go stale or take another record; or stragglers, the chains that
	// hold records of a chain already evicted, which every Tick visits.
	// cursors and older remember the rest — chains that left, and links to
	// chains not seen yet — in two generations: every StaleAfter, older is
	// forgotten whole and cursors takes its place.
	chains              map[uuid.UUID]*chain
	arrived, stragglers chainList
	waiting             waitHeap
	cursors, older      map[uuid.UUID]cursor
	rotated             time.Time
	generation          uint64 // rotations of cursors into older, ever
	persistQ            linkQ  // links awaiting the next pass
	queuedFirst         uint64 // the ordinal (appended) of the oldest link in persistQ
	// syms is the current generation of symbols: a chain held from now on
	// interns its strings there.
	syms *probe.Symbols
	// What the table keeps for reuse: heads and chunks, at most
	// maxFreeChunks of each, and link chunks, at most maxFreeLinkChunks;
	// cleared chains, at most maxSpareChains; and the link queue's chunk
	// list, unless it grew past maxFreeChunks.
	heads    []*head
	free     []*chunk
	linkFree []*linkChunk
	spare    []*chain
	spareQ   []*linkChunk
	// nodes supplies every store-mode machine: a delivered root's nodes
	// go back to it once the callbacks have returned.
	nodes analysis.NodePool
	// out is where chain machines leave what an event closed, emptied into
	// the callbacks after every apply.
	out analysis.ParsedChain

	// compacts is the store's compact door, when it has one: an evicted
	// chain goes there as it is held, no string resolved.
	compacts probe.CompactStore
	// remaps maps the frame AppendFrame takes into each generation of
	// symbols its chains intern in. Used under mu.
	remaps []probe.FrameRemap

	// The judge's scratch: nothing a judgement builds outlives it, so one
	// machine (drawing on nodes) and one output serve every chain. keys
	// puts a chain in seq order, for a judgement or an Insert, sorted holds
	// it so, and resolved holds it resolved for a store without the compact
	// door; evs lists an eviction pass's chains, and after the pass, until
	// reuseLocked, the chains it finished. All are used under evictMu.
	mach     analysis.ChainMachine
	parsed   analysis.ParsedChain
	keys     []seqAt
	sorted   []probe.Compact
	resolved []probe.Record
	evs      []eviction
	// finishedQ is the link queue the last pass handed the store, kept
	// until reuseLocked. Used under evictMu.
	finishedQ linkQ

	appended, persisted, discarded uint64
	buffered                       int
	// backlogged mirrors buffered >= maxBuffered as of the last unlock, so
	// that Backlogged — asked once per ship frame — does not queue for mu
	// behind another connection's batch.
	backlogged atomic.Bool

	feed  []Completion
	feedN uint64 // completions ever; feedN%len(feed) is the next slot

	judgements uint64 // full parses, ever
	// evictions counts completions by the pass that evicted them: a door's
	// after an arrival, or a Tick's.
	evictions [2]uint64

	// recent is a fixed-size ring of completed-root summaries; recentN
	// counts completions ever, so recentN % len(recent) is the next slot.
	recent  []RootSummary
	recentN uint64

	// evictMu serializes the out-of-lock half of evictions (store inserts
	// + OnComplete callbacks) so completions are delivered in feed order.
	evictMu sync.Mutex
}

// The passes that evict, indexing Assembler.evictions.
const (
	byArrival = iota
	byTick
)

var (
	_ probe.Sink      = (*Assembler)(nil)
	_ probe.SpanSink  = (*Assembler)(nil)
	_ probe.FrameSink = (*Assembler)(nil)
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
	a.compacts, _ = cfg.Store.(probe.CompactStore)
	return a
}

// Append implements probe.Sink.
func (a *Assembler) Append(r probe.Record) {
	a.mu.Lock()
	now := a.cfg.Clock()
	defer a.leave(now)
	a.appendLocked(&r, now.UnixNano())
}

// AppendSpan implements probe.SpanSink: the records of one invocation span
// apply under a single lock acquisition.
func (a *Assembler) AppendSpan(recs []probe.Record) { a.AppendBatch(recs) }

// AppendBatch takes records of any mix of chains in order, under one lock
// acquisition and one clock reading: the Record door for a caller in the
// process that holds a batch.
func (a *Assembler) AppendBatch(recs []probe.Record) {
	a.mu.Lock()
	now := a.cfg.Clock()
	defer a.leave(now)
	at := now.UnixNano()
	for i := range recs {
		a.appendLocked(&recs[i], at)
	}
}

// AppendFrame implements probe.FrameSink: a ship frame's records — any mix
// of chains — apply in order under one lock acquisition and one clock
// reading, as AppendBatch applies the records Decode gives for the frame.
// Each record is converted straight from the frame into its chain's
// storage, its strings mapped from the frame's table into the chain's
// generation of symbols through a remap of that generation: an entry is
// hashed the first time a record of the frame names it, not once a record.
// A link record is copied out of the frame whole, as the link queue keeps
// links: no generation of symbols sees it.
func (a *Assembler) AppendFrame(f *probe.Frame) {
	a.mu.Lock()
	now := a.cfg.Clock()
	defer a.leave(now)
	at := now.UnixNano()
	links := f.Links
	var last *chain // the chain of the record before, while the table holds it
	for i := range f.Records {
		r := &f.Records[i]
		if r.Kind == probe.KindLink {
			var rec probe.Record
			f.Resolve(&rec, i)
			rec.LinkParent, rec.LinkParentSeq, rec.LinkChild = links[0].Parent, links[0].ParentSeq, links[0].Child
			links = links[1:]
			a.appendLink(&rec, at)
			continue
		}
		c := a.chainOf(r.Chain, at, last)
		a.remap(c.mach.Syms.Table(0), f).Convert(a.slot(c), f, i)
		if last = c; !a.took(c) {
			last = nil
		}
	}
	for i := range a.remaps {
		a.remaps[i].Release()
	}
	a.remaps = a.remaps[:0]
}

// remap returns the remap of f's table into tab, made the first time a
// record of f is converted into tab: the last one used, most often. Called
// under a.mu.
func (a *Assembler) remap(tab *probe.SymbolTable, f *probe.Frame) *probe.FrameRemap {
	for i := len(a.remaps) - 1; i >= 0; i-- {
		if a.remaps[i].Table() == tab {
			return &a.remaps[i]
		}
	}
	if len(a.remaps) < cap(a.remaps) { // reuse the ids a released remap kept
		a.remaps = a.remaps[:len(a.remaps)+1]
	} else {
		a.remaps = append(a.remaps, probe.FrameRemap{})
	}
	m := &a.remaps[len(a.remaps)-1]
	m.Reset(tab, f)
	return m
}

// unlock releases a.mu after an append or an eviction pass, noting first
// whether the table is backlogged.
func (a *Assembler) unlock() {
	a.backlogged.Store(a.buffered >= maxBuffered)
	a.mu.Unlock()
}

// leave releases a.mu after a door took its records at now. When the chain
// that arrived least recently had gone quiet by then, the door runs the
// arrival pass itself before it returns: it flushes the link queue and
// evicts what went quiet, as a Tick would. It tries evictMu rather than
// waiting for it, so a frame never queues behind a Tick's or another
// connection's store writes; the pass it skips falls to the next arrival
// or Tick. Trying it under a.mu waits for nothing, so whoever waits for
// both still takes evictMu first. A table without a store runs no pass: it
// holds a chain only while something of it is open, and an application's
// probes may be what feeds it.
func (a *Assembler) leave(now time.Time) {
	head := a.arrived.head
	if a.cfg.Store == nil || head == nil || time.Duration(now.UnixNano()-head.last) < a.cfg.Quiescence || !a.evictMu.TryLock() {
		a.unlock()
		return
	}
	defer a.evictMu.Unlock()
	a.reuseLocked()
	links := a.takePersistQLocked()
	evs := a.evictDueLocked(now, a.evs, byArrival)
	a.unlock()
	a.finish(links, evs)
}

// appendLocked takes one record that arrived at at, in Unix nanoseconds.
// Called under a.mu.
func (a *Assembler) appendLocked(r *probe.Record, at int64) {
	if r.Kind == probe.KindLink {
		a.appendLink(r, at)
		return
	}
	c := a.chainOf(r.Chain, at, nil)
	c.mach.Syms.Table(0).Convert(a.slot(c), r)
	a.took(c)
}

// appendLink takes link record r, which arrived at at. Called under a.mu.
func (a *Assembler) appendLink(r *probe.Record, at int64) {
	store := a.cfg.Store != nil
	if store {
		a.appended++
	}
	if c := a.chains[r.LinkChild]; c != nil {
		c.parent, c.linked = r.LinkParent, true
	} else {
		cur := a.recall(r.LinkChild)
		cur.parent, cur.linked, cur.last = r.LinkParent, true, max(cur.last, at)
		a.cursors[r.LinkChild] = cur
	}
	if store {
		// Links are store metadata: forward at the next pass. A link
		// whose parent chain is later discarded is harmless —
		// ChildChain is only consulted for nodes that exist.
		q := &a.persistQ
		if q.n == 0 {
			a.queuedFirst = a.appended
		}
		if q.n == len(q.chunks)*chunkRecs {
			q.chunks = append(q.chunks, pop(&a.linkFree))
		}
		q.chunks[q.n/chunkRecs][q.n%chunkRecs] = *r
		q.n++
		a.buffered++
	}
}

// chainOf counts an event record of chain id that arrived at at, and
// returns the chain that holds it — hint, when hint is that chain and the
// table still holds it (a frame's records come a span of one chain at a
// time) — held from now on if it was not. Unless it holds stragglers, the
// chain goes to the tail of the arrival list, once for a run of its
// records. Called under a.mu.
func (a *Assembler) chainOf(id uuid.UUID, at int64, hint *chain) *chain {
	if a.cfg.Store != nil {
		a.appended++
	}
	c := hint
	if c == nil || c.id != id {
		if c = a.chains[id]; c == nil {
			c = a.hold(id, a.recall(id), at)
			c.first = a.appended
		} else if c.decided == undecided && a.arrived.tail != c {
			a.unqueue(c)
			a.arrived.push(c)
		}
	}
	c.last = at
	return c
}

// unqueue takes c off the list, or out of the heap, that keeps it. Called
// under a.mu.
func (a *Assembler) unqueue(c *chain) {
	if c.list != nil {
		c.list.remove(c)
	} else if c.wait > 0 {
		heap.Remove(&a.waiting, c.wait-1)
	}
}

// took finishes taking in the record just written into c's last slot: it
// meets c's cursor when the table is eager, a monitor lets c go once
// nothing of it is open, and the ledger counts it. It reports whether the
// table still holds c. Called under a.mu.
func (a *Assembler) took(c *chain) bool {
	if a.eager {
		a.catchUp(c)
	}
	if a.cfg.Store == nil {
		if !c.mach.Open() && len(c.pending) == 0 {
			a.unhold(c)
			return false
		}
		return true
	}
	if c.decided == decidedDiscard {
		a.discarded++
	} else {
		a.buffered++
	}
	return true
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

// hold starts holding records of chain id from its cursor, at, in a spare
// chain when there is one, interning in the current generation of symbols:
// a fresh one once the last holds maxSymbols strings or maxSymbolBytes
// bytes. Called under a.mu.
func (a *Assembler) hold(id uuid.UUID, cur cursor, at int64) *chain {
	c := pop(&a.spare)
	c.id, c.cursor, c.since = id, cur, at
	c.mach.Applied, c.mach.Syms = cur.applied, a.current()
	if a.cfg.Store != nil {
		c.mach.Pool = &a.nodes
	}
	a.chains[id] = c
	if cur.decided == undecided {
		a.arrived.push(c)
	} else {
		a.stragglers.push(c)
	}
	return c
}

// current returns the current generation of symbols, a fresh one once the
// last holds maxSymbols strings or maxSymbolBytes bytes. Called under a.mu.
func (a *Assembler) current() *probe.Symbols {
	if t := a.syms; t == nil || t.Table(0).Len() >= maxSymbols || t.Table(0).Bytes() >= maxSymbolBytes {
		a.syms = probe.NewSymbols(1)
	}
	return a.syms
}

// unhold stops holding c's records, remembering its cursor. Without a
// store nothing follows, and c is retired at once: its chunks go with it,
// the callbacks may keep what was built on them. Called under a.mu.
func (a *Assembler) unhold(c *chain) {
	delete(a.chains, c.id)
	a.unqueue(c)
	c.applied = c.mach.Applied
	a.cursors[c.id] = c.cursor
	if a.cfg.Store == nil {
		a.retire(c)
	}
}

// retire clears c, pointers first, so that it pins no chunk, node or
// symbols, and keeps it for hold, up to maxSpareChains; its chunks must
// have gone elsewhere. Called under a.mu.
func (a *Assembler) retire(c *chain) {
	clear(c.chunks)
	clear(c.pending[:cap(c.pending)])
	c.mach.Recycle()
	c.mach.Syms = nil
	chunks, pending := c.chunks[:0], c.pending[:0]
	if cap(chunks) > maxSpareChunks {
		chunks = nil
	}
	if cap(pending) > maxSparePending {
		pending = nil
	}
	*c = chain{recBuf: recBuf{chunks: chunks}, pending: pending, mach: c.mach}
	if len(a.spare) < maxSpareChains {
		a.spare = append(a.spare, c)
	}
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
		case !c.admit(rec):
			c.refused = true
		default:
			a.apply(c, rec)
			if len(c.pending) > 0 {
				a.drain(c, false)
			}
		}
	}
}

// slot returns a new last slot of c's records, for the one copy of a
// record the table owns, its strings interned in the symbols of c's
// machine: in a head, or a chunk once the head is full, from its free list
// when the last is full. Called under a.mu.
func (a *Assembler) slot(c *chain) *probe.Compact {
	switch {
	case c.head == nil:
		c.head = pop(&a.heads)
	case c.n >= headRecs && (c.n-headRecs)%chunkRecs == 0:
		c.chunks = append(c.chunks, pop(&a.free))
	}
	c.n++
	return c.at(c.n - 1)
}

// admit moves the cursor to r and reports whether r is to be applied: not
// a resend of a record applied at the cursor, and not any record below it,
// where a resend cannot be told from the second half of a tie that arrived
// after the chain moved on.
func (c *cursor) admit(r *probe.Compact) bool {
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
func (a *Assembler) apply(c *chain, rec *probe.Compact) {
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
			a.cfg.Metrics.ObserveChainEx(n.Op().Interface, n.Latency, metrics.ChainID(c.id), whenNanos)
		}
	})
	c.add(root, nodes)
	a.recent[a.recentN%uint64(len(a.recent))] = RootSummary{
		Op: root.Op(), Chain: c.id, Oneway: root.Oneway,
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
	if root.StubEnd != nil && root.StubEnd.WallEnd != probe.NoWallTime {
		return probe.WallTime(root.StubEnd.WallEnd)
	}
	if root.SkelEnd != nil && root.SkelEnd.WallEnd != probe.NoWallTime {
		return probe.WallTime(root.SkelEnd.WallEnd)
	}
	return time.Time{}
}

// recycle returns an evicted chain's wiped head and chunks to their free
// lists, up to their bounds, and retires the chain. Called under a.mu.
func (a *Assembler) recycle(c *chain) {
	if c.head != nil && len(a.heads) < maxFreeChunks {
		a.heads = append(a.heads, c.head)
	}
	a.free = append(a.free, c.chunks[:min(maxFreeChunks-len(a.free), len(c.chunks))]...)
	a.retire(c)
}

// eviction is one chain's records leaving the table, prepared under the
// lock and finished (store insert, callback, recycling) outside it.
type eviction struct {
	comp    Completion
	notify  bool // comp is a completion to deliver; false for stragglers
	persist bool // the records go to the store
	c       *chain
}

// Tick advances time-based processing: it flushes the link queue, releases
// stragglers, evicts every chain gone stale and every quiescent chain that
// is complete that no arrival has evicted yet, forgets the older generation
// of cursors once it is StaleAfter old, and returns how many chains it
// evicted. While records arrive, the doors evict what goes quiet
// themselves, so Tick's period bounds only what waits on an idle table:
// quiet chains when nothing arrives, stragglers, staleness and links. The
// collection daemon calls Tick from its own ticker; tests call it with a
// fake clock. It visits the stragglers and what is due, not every chain
// held.
func (a *Assembler) Tick() int {
	now := a.cfg.Clock()
	// Serialize the out-of-lock half before preparing evictions so
	// concurrent Ticks deliver completions in feed order.
	a.evictMu.Lock()
	defer a.evictMu.Unlock()

	a.mu.Lock()
	a.reuseLocked()
	links := a.takePersistQLocked()
	evs := a.evs
	at := now.UnixNano()
	for c := a.stragglers.head; c != nil; {
		next := c.next
		a.catchUp(c)
		if time.Duration(at-c.last) >= a.cfg.StaleAfter || !c.mach.Open() && len(c.pending) == 0 {
			evs = append(evs, a.releaseLocked(c))
		}
		c = next
	}
	// A waiting chain is due once it is stale, and judgeLocked then lets it
	// go whatever its parse.
	for len(a.waiting) > 0 && a.waiting[0].due <= at {
		if ev, ok := a.judgeLocked(a.waiting[0], now, true, "stale"); ok {
			evs = append(evs, ev)
			a.evictions[byTick]++
		}
	}
	evs = a.evictDueLocked(now, evs, byTick)
	if now.Sub(a.rotated) >= a.cfg.StaleAfter {
		// The new generation takes in about what the one it replaces did.
		a.rotated, a.older, a.cursors = now, a.cursors, make(map[uuid.UUID]cursor, len(a.cursors))
		a.generation++
	}
	a.unlock()

	n := a.finish(links, evs)
	a.reuse()
	return n
}

// evictDueLocked judges the chains of the arrival list that went quiet by
// now, least recent first, and stops at the first that has not. Each
// leaves if judgeLocked lets it — its eviction appended to evs and counted
// under by — or else waits until it goes stale: silent for StaleAfter, or
// held that long once a parse found it incomplete. A record for it moves
// it back to the arrival list. Called under a.mu and evictMu.
func (a *Assembler) evictDueLocked(now time.Time, evs []eviction, by int) []eviction {
	at := now.UnixNano()
	for c := a.arrived.head; c != nil && time.Duration(at-c.last) >= a.cfg.Quiescence; c = a.arrived.head {
		stale := time.Duration(at-c.last) >= a.cfg.StaleAfter || c.judged > 0 && time.Duration(at-c.since) >= a.cfg.StaleAfter
		if ev, ok := a.judgeLocked(c, now, stale, "stale"); ok {
			evs = append(evs, ev)
			a.evictions[by]++
		} else if c.list == &a.arrived { // still held: incomplete
			a.arrived.remove(c)
			if c.due = c.last; c.judged > 0 {
				c.due = c.since
			}
			c.due += int64(a.cfg.StaleAfter)
			heap.Push(&a.waiting, c)
		}
	}
	return evs
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
		comp = a.judge(c)
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

// judge is the full parse: every record c holds, in seq order, through the
// judge's machine. Called under a.mu and evictMu.
func (a *Assembler) judge(c *chain) Completion {
	a.judgements++
	p := &a.parsed
	p.Roots, p.Broken, p.Anomalies = p.Roots[:0], p.Broken[:0], p.Anomalies[:0]
	a.mach.Recycle()
	a.mach.Syms = c.mach.Syms
	for _, k := range a.seqOrder(&c.recBuf) {
		a.mach.Apply(c.at(k.at), p)
	}
	a.mach.Finish(p)
	a.mach.Syms = nil
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
// buffer. Sixteen bytes move per comparison's swap, not the record's 104.
type seqAt struct {
	seq uint64
	at  int
}

// seqOrder returns where b's records sit, in seq order, equal seqs in
// arrival order: the table's scratch, valid until the next call. Called
// under evictMu.
func (a *Assembler) seqOrder(b *recBuf) []seqAt {
	keys := a.keys[:0]
	sorted := true
	for i := 0; i < b.n; i++ {
		seq := b.at(i).Seq
		sorted = sorted && (i == 0 || seq >= keys[i-1].seq)
		keys = append(keys, seqAt{seq, i})
	}
	if !sorted { // a chain already in seq order needs no sort
		slices.SortFunc(keys, func(x, y seqAt) int {
			if c := cmp.Compare(x.seq, y.seq); c != 0 {
				return c
			}
			return cmp.Compare(x.at, y.at)
		})
	}
	// Kept for the next chain, unless one enormous chain sized it.
	if a.keys = keys; len(keys) > maxScratchRecs {
		a.keys = nil
	}
	return keys
}

// persist hands c's records to the store in seq order, in the table's
// scratch: through the compact door as they are held, or else resolved
// into Records for Insert, and cleared once the store returns. Called
// under evictMu.
func (a *Assembler) persist(c *chain) {
	keys := a.seqOrder(&c.recBuf)
	tab := c.mach.Syms.Table(0)
	if a.compacts != nil {
		cs := a.sorted[:0]
		for _, k := range keys {
			cs = append(cs, *c.at(k.at))
		}
		a.compacts.InsertCompacts(cs, tab)
		if a.sorted = cs; len(cs) > maxScratchRecs {
			a.sorted = nil
		}
		return
	}
	recs := a.resolved[:0]
	for _, k := range keys {
		recs = append(recs, probe.Record{})
		tab.Resolve(&recs[len(recs)-1], c.at(k.at))
	}
	a.cfg.Store.Insert(recs...)
	clear(recs)
	if a.resolved = recs; len(recs) > maxScratchRecs {
		a.resolved = nil
	}
}

// takePersistQLocked detaches the link queue, leaving an empty one on the
// spare chunk list in its place. Called under a.mu.
func (a *Assembler) takePersistQLocked() linkQ {
	q := a.persistQ
	if q.n == 0 {
		return linkQ{}
	}
	a.persistQ, a.spareQ = linkQ{chunks: a.spareQ}, nil
	a.buffered -= q.n
	a.persisted += uint64(q.n)
	return q
}

// finish runs the out-of-lock half of evictions — store inserts and
// completion callbacks — wipes what they used, and leaves it in a.evs and
// a.finishedQ for reuseLocked; it returns the number of completions.
// Caller holds evictMu.
func (a *Assembler) finish(links linkQ, evs []eviction) int {
	links.each(func(recs []probe.Record) { a.cfg.Store.Insert(recs...) })
	completions := 0
	for _, ev := range evs {
		if ev.persist {
			a.persist(ev.c)
		}
		if ev.notify {
			completions++
			if a.cfg.OnComplete != nil {
				a.cfg.OnComplete(ev.comp)
			}
		}
	}
	links.each(func(recs []probe.Record) { clear(recs) })
	for _, ev := range evs {
		ev.c.wipe()
	}
	a.evs, a.finishedQ = evs, links
	return completions
}

// reuseLocked returns what the last pass finished — its chains, their
// chunks and the link queue's chunks — to the lists the table reuses, and
// empties a.evs for the next pass. A door's pass leaves this to the next
// pass, which takes a.mu anyway, so that a frame takes the lock once; Tick
// and the flush do it before they return. Called under a.mu and evictMu.
func (a *Assembler) reuseLocked() {
	if links := a.finishedQ; links.n > 0 {
		a.linkFree = append(a.linkFree, links.chunks[:min(maxFreeLinkChunks-len(a.linkFree), len(links.chunks))]...)
		clear(links.chunks)
		if cap(links.chunks) <= maxFreeChunks {
			a.spareQ = links.chunks[:0]
		}
		a.finishedQ = linkQ{}
	}
	for _, ev := range a.evs {
		a.recycle(ev.c)
	}
	clear(a.evs)
	if a.evs = a.evs[:0]; cap(a.evs) > maxScratchRecs {
		a.evs = nil
	}
}

// reuse is reuseLocked for the end of a pass that waits for a.mu. Caller
// holds evictMu.
func (a *Assembler) reuse() {
	a.mu.Lock()
	a.reuseLocked()
	a.mu.Unlock()
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
	a.reuseLocked()
	links := a.takePersistQLocked()
	held := make([]*chain, 0, len(a.chains))
	a.eachHeld(func(c *chain) {
		if match == nil || match(c.id) {
			held = append(held, c)
		}
	})
	slices.SortFunc(held, func(x, y *chain) int { return uuid.Compare(x.id, y.id) })
	now := a.cfg.Clock()
	evs := a.evs
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

	n := a.finish(links, evs)
	a.reuse()
	return n
}

// Quiescence is how long a chain must go quiet before the table counts it
// complete: Config.Quiescence, or its default. While records arrive a
// complete chain leaves with the first after that; a driver's Tick period
// adds to it only on a table nothing arrives at.
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
	a.eachHeld(func(c *chain) {
		if !held || c.first < oldest {
			oldest, held = c.first, true
		}
	})
	return oldest, held
}

// eachHeld calls fn with every chain the table holds, walking the lists
// and the heap that keep them rather than the chains map, whose buckets
// stay as large as the most it ever held. Called under a.mu.
func (a *Assembler) eachHeld(fn func(*chain)) {
	for c := a.arrived.head; c != nil; c = c.next {
		fn(c)
	}
	for _, c := range a.waiting {
		fn(c)
	}
	for c := a.stragglers.head; c != nil; c = c.next {
		fn(c)
	}
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
	remembered, evictions := len(a.cursors)+len(a.older), a.evictions
	a.mu.Unlock()
	fmt.Fprintf(w, "causeway_assembler_open_chains %d\n", open)
	fmt.Fprintf(w, "causeway_assembler_chains_remembered %d\n", remembered)
	fmt.Fprintf(w, "causeway_assembler_records_appended_total %d\n", led.Appended)
	fmt.Fprintf(w, "causeway_assembler_records_persisted_total %d\n", led.Persisted)
	fmt.Fprintf(w, "causeway_assembler_records_discarded_total %d\n", led.Discarded)
	fmt.Fprintf(w, "causeway_assembler_records_buffered %d\n", led.Buffered)
	fmt.Fprintf(w, "causeway_assembler_chains_completed_total %d\n", completions)
	fmt.Fprintf(w, "causeway_assembler_chains_judged_total %d\n", judgements)
	fmt.Fprintf(w, "causeway_assembler_evictions_total{by=\"arrival\"} %d\n", evictions[byArrival])
	fmt.Fprintf(w, "causeway_assembler_evictions_total{by=\"tick\"} %d\n", evictions[byTick])
}
