// Package streamrecon is the streaming successor to the collect-then-
// reconstruct pipeline: an incremental chain assembler that consumes
// telemetry records as they arrive at the collection daemon, buffers
// each chain's events keyed by its constant-size Function UUID, detects
// chain completion, and evicts completed chains to the trace store —
// so the DSCG is continuously materialized instead of reconstructed in
// one drain step when the application quiesces (the restriction §3 of
// the paper places on characterization, already lifted per-process by
// the online monitor and here lifted for the whole collection plane).
//
// # Completion heuristics
//
// A chain is complete when it is quiescent (no record arrived for
// Config.Quiescence) AND its events parse cleanly through the Figure-4
// state machine (analysis.ParseChainEvents reports no broken
// invocations and no anomalies) — the "root returned" condition
// phrased in terms the parser already defines. Quiescence alone is not
// enough (a slow call pauses mid-chain longer than any fixed window);
// a clean parse alone is not enough either (each sibling root parses
// cleanly while the client thread is still issuing the next sibling, and
// cross-process arrival skew can momentarily make a prefix look
// complete). Sequence-contiguity is deliberately NOT required: call
// retries renumber their FTL at a seq stride, leaving legitimate gaps.
//
// Chains that stay incomplete past Config.StaleAfter are evicted as
// broken — the remnant a died process, an expired deadline, or a
// dropped shipper ring leaves behind. Stale eviction is what bounds
// assembler memory in the presence of loss.
//
// # Retention
//
// At eviction the assembler consults a tail-retention policy
// (sampling.TailPolicy): slow, broken, and anomalous chains are always
// persisted; normal chains pass a deterministic rate test. Every
// buffered record is accounted for in a ledger — persisted, discarded
// (tail policy), or shed (backlog cap) — so the daemon can prove no
// record vanished without being counted:
//
//	Appended == Persisted + Discarded + Shed + Buffered
//
// # Stragglers
//
// A record arriving for an already-evicted chain follows its chain's
// decision: persisted chains forward the straggler to the store (so a
// sibling root issued after an eviction still reaches the offline
// analyzer and the store-level DSCG stays equal to the batch one),
// discarded and shed chains swallow it, counted.
//
// # Record memory
//
// Append and AppendBatch borrow their records (probe.BatchSink): the
// assembler makes the one copy it owns, into fixed-size chunks taken from a
// free list it keeps. A chain grows by taking another chunk, never by
// copying what it already holds; when the chain leaves — persisted,
// discarded or shed — its chunks are cleared and go back to the list, which
// holds at most maxFreeChunks of them, so a steady stream allocates no
// record memory and a burst's worth is given back to the garbage collector.
// The store in turn borrows a chunk for the length of one Insert.
package streamrecon

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"time"

	"causeway/internal/analysis"
	"causeway/internal/probe"
	"causeway/internal/sampling"
	"causeway/internal/uuid"
)

// RecordStore is the eviction destination.
type RecordStore = probe.RecordStore

// Config assembles a streaming assembler.
type Config struct {
	// Store receives evicted chains' records; required. Each Insert is
	// handed one chunk of a chain's records, a chain's chunks in seq order,
	// and borrows it: the chunk is cleared and reused once Insert returns,
	// so the store must not retain the slice (probe.RecordStore).
	Store RecordStore
	// Quiescence is how long a chain must go without a new record
	// before a clean parse counts as completion. Default 500ms.
	Quiescence time.Duration
	// StaleAfter evicts a still-incomplete chain as broken after this
	// long without a new record. Default 30s.
	StaleAfter time.Duration
	// SlowThreshold classifies a completed chain slow when any root's
	// compensated latency exceeds it; 0 disables the slow verdict.
	SlowThreshold time.Duration
	// Tail is the retention policy applied at eviction; nil keeps
	// every chain.
	Tail *sampling.TailPolicy
	// MaxBuffered caps buffered records; when an Append would exceed
	// it, the oldest open chain is shed whole (head-consistently: its
	// buffered records are dropped and counted, and so is every later
	// record of that chain). 0 means unbounded.
	MaxBuffered int
	// OnComplete, when set, fires once per evicted chain, after the
	// records were handed to the store. It runs outside the assembler
	// lock but serialized with other evictions.
	OnComplete func(Completion)
	// FeedSize bounds the completion feed ring. Default 256.
	FeedSize int
	// FeedGen identifies this assembler's feed on /feedz. Completion
	// IDs restart from 1 whenever a collector restarts, so a tail that
	// only compares cursors misses a restart whose fresh feed races
	// past its old cursor; the generation changes with every assembler,
	// making the restart detectable regardless of cursor order. Zero
	// derives one from the clock at New.
	FeedGen uint64
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

// Completion summarizes one evicted chain — the streaming eviction
// feed's unit, consumed by collectd's live reporting, /feedz, and
// `causectl chains -follow`.
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
	// Verdict flags.
	Slow, Broken, Anomalous bool
	// Persisted reports whether the records reached the store; false
	// means the tail policy discarded them or the backlog cap shed them.
	Persisted bool
	// Reason is why the chain left the assembler: "complete", "stale",
	// "flush", or "shed".
	Reason string
	// When is the eviction time: the clock reading of the Tick (or
	// FlushOpen, or shedding Append) that evicted the chain.
	When time.Time
}

// Ledger is the assembler's record accounting snapshot. The invariant
// Appended == Persisted + Discarded + Shed + Buffered holds at every
// quiescent instant (between Append/Tick calls).
type Ledger struct {
	Appended  uint64 // records received
	Persisted uint64 // records handed to the store
	Discarded uint64 // records dropped by the tail policy, counted
	Shed      uint64 // records dropped by the backlog cap, counted
	Buffered  uint64 // records currently held for open chains
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

// chainBuf is one open chain's buffered events.
type chainBuf struct {
	recBuf
	last time.Time // when the newest record arrived
	// lastSeq is the Seq of the record at the end of the buffer, kept here
	// so an append need not read it back from a chunk gone cold.
	lastSeq uint64
	// unsorted is set when a record arrives with a lower Seq than the one
	// before it; only then does judging have to sort.
	unsorted bool
	// judged is the record count at the last judgement that left the chain
	// open. The parse is a pure function of the buffered records, so until
	// one more arrives (or StaleAfter forces the eviction) judging again
	// would reach the same verdict.
	judged int
}

// Chain decisions remembered after eviction, so stragglers follow them.
type decision uint8

const (
	decidedPersist decision = iota + 1
	decidedDiscard
	decidedShed
)

// Assembler incrementally assembles chains from a live record stream.
// It is a probe.Sink: attach it to a telemetry server's fan-out. A
// driver must call Tick periodically — the assembler owns no goroutine,
// following the repo's pattern of leaving scheduling to the daemon.
type Assembler struct {
	cfg Config

	mu       sync.Mutex
	open     map[uuid.UUID]*chainBuf
	decided  map[uuid.UUID]decision
	persistQ recBuf   // links + persisted-chain stragglers awaiting Tick
	free     []*chunk // cleared chunks awaiting reuse, at most maxFreeChunks

	// The judge's scratch: nothing a judgement builds outlives it, so one
	// machine (recycling its nodes), one output and one sort buffer serve
	// every chain.
	mach   analysis.ChainMachine
	parsed analysis.ParsedChain
	order  []seqAt

	appended, persisted, discarded, shed uint64
	buffered                             int

	feed  []Completion
	feedN uint64 // completions ever; feedN%len(feed) is the next slot

	judgements uint64 // chains parsed by Tick and FlushOpen, ever

	// evictMu serializes the out-of-lock half of evictions (store
	// inserts + OnComplete callbacks) so completions are delivered in
	// feed order.
	evictMu sync.Mutex
}

var (
	_ probe.Sink      = (*Assembler)(nil)
	_ probe.BatchSink = (*Assembler)(nil)
)

// New builds an assembler, applying defaults.
func New(cfg Config) (*Assembler, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("streamrecon: config requires a Store")
	}
	if cfg.Quiescence <= 0 {
		cfg.Quiescence = 500 * time.Millisecond
	}
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = 30 * time.Second
	}
	if cfg.StaleAfter < cfg.Quiescence {
		cfg.StaleAfter = cfg.Quiescence
	}
	if cfg.FeedSize <= 0 {
		cfg.FeedSize = 256
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.FeedGen == 0 {
		cfg.FeedGen = uint64(cfg.Clock().UnixNano())
	}
	return &Assembler{
		cfg:     cfg,
		open:    make(map[uuid.UUID]*chainBuf),
		decided: make(map[uuid.UUID]decision),
		feed:    make([]Completion, cfg.FeedSize),
	}, nil
}

// Append implements probe.Sink. It only buffers — no parsing, no disk —
// so the telemetry ingest path stays cheap.
func (a *Assembler) Append(r probe.Record) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.appendLocked(&r, a.cfg.Clock())
}

// AppendBatch implements probe.BatchSink: a ship frame's records are
// buffered under one lock acquisition and stamped with one clock reading.
func (a *Assembler) AppendBatch(recs []probe.Record) {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.cfg.Clock()
	for i := range recs {
		a.appendLocked(&recs[i], now)
	}
}

// appendLocked buffers one record that arrived at now. Called under a.mu.
func (a *Assembler) appendLocked(r *probe.Record, now time.Time) {
	a.appended++
	if r.Kind == probe.KindLink {
		// Links are store metadata, not chain events: forward on the
		// next Tick. A link whose parent chain is later discarded is
		// harmless — ChildChain is only consulted for nodes that exist.
		a.push(&a.persistQ, r)
		a.buffered++
		return
	}
	// An open chain has no decision yet, so the common case — one more
	// record of a chain being buffered — is one map lookup.
	buf, ok := a.open[r.Chain]
	if !ok {
		if d, ok := a.decided[r.Chain]; ok {
			// Straggler for an evicted chain: follow the chain's decision.
			switch d {
			case decidedPersist:
				a.push(&a.persistQ, r)
				a.buffered++
			case decidedDiscard:
				a.discarded++
			case decidedShed:
				a.shed++
			}
			return
		}
		buf = &chainBuf{}
		a.open[r.Chain] = buf
	}
	if r.Seq < buf.lastSeq {
		buf.unsorted = true
	}
	a.push(&buf.recBuf, r)
	buf.last, buf.lastSeq = now, r.Seq
	a.buffered++
	if a.cfg.MaxBuffered > 0 && a.buffered > a.cfg.MaxBuffered {
		a.shedOldestLocked(r.Chain, now)
	}
}

// push copies r to the end of b — the one copy of the record the assembler
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

// wipe clears the records b holds, so a recycled chunk keeps no string of
// the chain that used it. It needs no lock: b has left the tables.
func (b *recBuf) wipe() {
	b.each(func(recs []probe.Record) { clear(recs) })
}

// recycleLocked returns a wiped buffer's chunks to the free list, up to its
// bound. Called under a.mu.
func (a *Assembler) recycleLocked(b *recBuf) {
	room := maxFreeChunks - len(a.free)
	a.free = append(a.free, b.chunks[:min(room, len(b.chunks))]...)
}

// shedOldestLocked drops the oldest open chain whole (skipping the one
// that just grew, unless it is the only one). Chains pinned by the
// alerting plane (Tail.Pins) are passed over — they are the causal
// evidence behind an active alert — unless every candidate is pinned, in
// which case the oldest sheds anyway so the buffer stays bounded.
// Called under a.mu.
func (a *Assembler) shedOldestLocked(justGrew uuid.UUID, now time.Time) {
	var pins *sampling.PinSet
	if a.cfg.Tail != nil {
		pins = a.cfg.Tail.Pins
	}
	var victim uuid.UUID
	var victimBuf *chainBuf
	var oldest uuid.UUID
	var oldestBuf *chainBuf
	for c, buf := range a.open {
		if c == justGrew && len(a.open) > 1 {
			continue
		}
		if oldestBuf == nil || buf.last.Before(oldestBuf.last) {
			oldest, oldestBuf = c, buf
		}
		if pins.Pinned(c) {
			continue
		}
		if victimBuf == nil || buf.last.Before(victimBuf.last) {
			victim, victimBuf = c, buf
		}
	}
	if victimBuf == nil {
		victim, victimBuf = oldest, oldestBuf
	}
	if victimBuf == nil {
		return
	}
	delete(a.open, victim)
	a.decided[victim] = decidedShed
	a.shed += uint64(victimBuf.n)
	a.buffered -= victimBuf.n
	victimBuf.wipe()
	a.recycleLocked(&victimBuf.recBuf)
	a.pushFeedLocked(Completion{
		Chain: victim, Roots: 0, Nodes: 0,
		Persisted: false, Reason: "shed", When: now,
	})
}

// eviction is one chain leaving the assembler, prepared under the lock
// and finished (store insert, callback, recycling) outside it.
type eviction struct {
	comp Completion
	recs recBuf // the chain's storage; inserted first when comp.Persisted
}

// Tick advances time-based processing: it flushes the persist queue,
// evicts every quiescent chain that parses cleanly (complete) and every
// chain stale past StaleAfter (broken), and returns how many chains
// were evicted. The collection daemon calls Tick from its reporting
// loop; tests call it with a fake clock.
func (a *Assembler) Tick() int {
	now := a.cfg.Clock()
	// Serialize the out-of-lock half before preparing evictions so
	// concurrent Ticks deliver completions in feed order.
	a.evictMu.Lock()
	defer a.evictMu.Unlock()

	a.mu.Lock()
	flush := a.takePersistQLocked()
	var evs []eviction
	for chain, buf := range a.open {
		idle := now.Sub(buf.last)
		if idle < a.cfg.Quiescence {
			continue
		}
		stale := idle >= a.cfg.StaleAfter
		if !stale && buf.judged == buf.n {
			continue // nothing arrived since it was last found incomplete
		}
		ev, done := a.judgeLocked(chain, buf, now, stale, "complete", "stale")
		if !done {
			buf.judged = buf.n
			continue
		}
		evs = append(evs, ev)
	}
	a.mu.Unlock()

	a.finish(flush, evs)
	return len(evs)
}

// judgeLocked parses buf and, if the chain is complete (clean parse) or
// force is set, removes it from open, applies the tail policy, records
// the decision and ledger movement, and pushes the feed entry, stamped now.
// Returns done=false when the chain stays open. Called under a.mu.
func (a *Assembler) judgeLocked(chain uuid.UUID, buf *chainBuf, now time.Time, force bool, okReason, forceReason string) (eviction, bool) {
	a.judgements++
	if buf.unsorted {
		a.sortBySeq(&buf.recBuf)
		buf.unsorted, buf.lastSeq = false, buf.at(buf.n-1).Seq
	}
	// analysis.ParseChainEvents over the chunks, with the judge's scratch.
	parsed := &a.parsed
	parsed.Roots, parsed.Broken, parsed.Anomalies = parsed.Roots[:0], parsed.Broken[:0], parsed.Anomalies[:0]
	parsed.Empty = buf.n == 0
	a.mach.Recycle()
	buf.each(func(recs []probe.Record) {
		for i := range recs {
			a.mach.Apply(&recs[i], parsed)
		}
	})
	a.mach.Finish(parsed)
	clean := parsed.Clean()
	if !clean && !force {
		return eviction{}, false
	}

	comp := Completion{
		Chain:     chain,
		Roots:     len(parsed.Roots),
		Broken:    len(parsed.Broken) > 0,
		Anomalous: len(parsed.Anomalies) > 0,
		When:      now,
		Reason:    okReason,
	}
	if !clean {
		comp.Reason = forceReason
		comp.Broken = true // stale/flushed chains are failure remnants
	}
	for _, r := range parsed.Roots {
		analysis.ComputeLatencySubtree(r)
		comp.Nodes += r.Count()
		if r.HasLatency && (!comp.HasLatency || r.Latency > comp.Latency) {
			comp.Latency, comp.HasLatency = r.Latency, true
		}
	}
	if len(parsed.Roots) > 0 {
		comp.Op = parsed.Roots[0].Op
	}
	comp.Slow = a.cfg.SlowThreshold > 0 && comp.HasLatency && comp.Latency > a.cfg.SlowThreshold

	verdict := sampling.ChainVerdict{
		Chain: chain, Slow: comp.Slow, Broken: comp.Broken, Anomalous: comp.Anomalous,
	}
	comp.Persisted = a.cfg.Tail == nil || a.cfg.Tail.Retain(verdict)

	delete(a.open, chain)
	a.buffered -= buf.n
	if comp.Persisted {
		a.decided[chain] = decidedPersist
		a.persisted += uint64(buf.n)
	} else {
		a.decided[chain] = decidedDiscard
		a.discarded += uint64(buf.n)
	}
	a.pushFeedLocked(comp)
	return eviction{comp: comp, recs: buf.recBuf}, true
}

// seqAt is one record's sort key: its seq and where it sits in the chain's
// buffer. Sixteen bytes move per comparison's swap, not the record's 272.
type seqAt struct {
	seq uint64
	at  int
}

// sortBySeq puts b's records in seq order, equal seqs in arrival order: it
// sorts the keys, then moves every displaced record once, in place, cycle
// by cycle. Called under a.mu.
func (a *Assembler) sortBySeq(b *recBuf) {
	order := a.order[:0]
	for i := 0; i < b.n; i++ {
		order = append(order, seqAt{b.at(i).Seq, i})
	}
	slices.SortFunc(order, func(x, y seqAt) int {
		if c := cmp.Compare(x.seq, y.seq); c != 0 {
			return c
		}
		return cmp.Compare(x.at, y.at)
	})
	// Slot i is to hold the record now at order[i].at.
	for i := range order {
		if order[i].at == i {
			continue
		}
		first := *b.at(i)
		to := i
		for from := order[to].at; from != i; from = order[to].at {
			*b.at(to) = *b.at(from)
			order[to].at = to
			to = from
		}
		*b.at(to) = first
		order[to].at = to
	}
	// Kept for the next chain, unless one enormous chain sized it.
	if a.order = order[:0]; cap(order) > maxFreeChunks*chunkRecs {
		a.order = nil
	}
}

// takePersistQLocked detaches the persist queue. Called under a.mu.
func (a *Assembler) takePersistQLocked() recBuf {
	q := a.persistQ
	a.persistQ = recBuf{}
	a.buffered -= q.n
	a.persisted += uint64(q.n)
	return q
}

// finish runs the out-of-lock half of evictions: store inserts and
// completion callbacks, then the return of every chunk to the free list.
// Caller holds evictMu.
func (a *Assembler) finish(flush recBuf, evs []eviction) {
	insert := func(recs []probe.Record) { a.cfg.Store.Insert(recs...) }
	flush.each(insert)
	for _, ev := range evs {
		if ev.comp.Persisted {
			ev.recs.each(insert)
		}
		if a.cfg.OnComplete != nil {
			a.cfg.OnComplete(ev.comp)
		}
	}
	if flush.n == 0 && len(evs) == 0 {
		return
	}
	flush.wipe()
	for i := range evs {
		evs[i].recs.wipe()
	}
	a.mu.Lock()
	a.recycleLocked(&flush)
	for i := range evs {
		a.recycleLocked(&evs[i].recs)
	}
	a.mu.Unlock()
}

// pushFeedLocked stamps the completion's feed id and stores it in the
// ring. Called under a.mu.
func (a *Assembler) pushFeedLocked(c Completion) Completion {
	a.feedN++
	c.ID = a.feedN
	a.feed[(a.feedN-1)%uint64(len(a.feed))] = c
	return c
}

// FlushOpen evicts every open chain regardless of age — the drain path.
// Chains that parse cleanly evict as complete; the rest evict as broken
// with reason "flush". Returns the number of chains evicted.
func (a *Assembler) FlushOpen() int {
	a.evictMu.Lock()
	defer a.evictMu.Unlock()

	a.mu.Lock()
	flush := a.takePersistQLocked()
	// Deterministic drain order for stable reports.
	chains := make([]uuid.UUID, 0, len(a.open))
	for c := range a.open {
		chains = append(chains, c)
	}
	sort.Slice(chains, func(i, j int) bool { return uuid.Compare(chains[i], chains[j]) < 0 })
	now := a.cfg.Clock()
	var evs []eviction
	for _, chain := range chains {
		ev, _ := a.judgeLocked(chain, a.open[chain], now, true, "complete", "flush")
		evs = append(evs, ev)
	}
	a.mu.Unlock()

	a.finish(flush, evs)
	return len(evs)
}

// Feed returns completions with ID > sinceID, oldest first, up to max
// (max <= 0 means the whole retained window), plus the newest ID seen —
// the cursor a poller passes back. Completions older than the ring
// window are gone; the poller observes the gap by the ID jump.
func (a *Assembler) Feed(sinceID uint64, max int) ([]Completion, uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	newest := a.feedN
	if sinceID >= newest {
		return nil, newest
	}
	capN := uint64(len(a.feed))
	oldest := uint64(1)
	if newest > capN {
		oldest = newest - capN + 1
	}
	if sinceID+1 > oldest {
		oldest = sinceID + 1
	}
	n := newest - oldest + 1
	if max > 0 && uint64(max) < n {
		oldest = newest - uint64(max) + 1
		n = uint64(max)
	}
	out := make([]Completion, 0, n)
	for id := oldest; id <= newest; id++ {
		out = append(out, a.feed[(id-1)%capN])
	}
	return out, newest
}

// FeedGen returns the feed generation stamped on every /feedz page —
// constant for this assembler's lifetime, different across restarts.
func (a *Assembler) FeedGen() uint64 { return a.cfg.FeedGen }

// OpenChains reports how many chains are currently buffered — the
// backlog signal the sampling governor steers by.
func (a *Assembler) OpenChains() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.open)
}

// Ledger snapshots the record accounting.
func (a *Assembler) Ledger() Ledger {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Ledger{
		Appended:  a.appended,
		Persisted: a.persisted,
		Discarded: a.discarded,
		Shed:      a.shed,
		Buffered:  uint64(a.buffered),
	}
}

// Completions reports how many chains ever left the assembler.
func (a *Assembler) Completions() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.feedN
}

// WriteMetrics emits assembler state in text exposition format for the
// metrics plane.
func (a *Assembler) WriteMetrics(w io.Writer) {
	a.mu.Lock()
	open := len(a.open)
	led := Ledger{
		Appended:  a.appended,
		Persisted: a.persisted,
		Discarded: a.discarded,
		Shed:      a.shed,
		Buffered:  uint64(a.buffered),
	}
	completions := a.feedN
	judgements := a.judgements
	a.mu.Unlock()
	fmt.Fprintf(w, "causeway_assembler_open_chains %d\n", open)
	fmt.Fprintf(w, "causeway_assembler_records_appended_total %d\n", led.Appended)
	fmt.Fprintf(w, "causeway_assembler_records_persisted_total %d\n", led.Persisted)
	fmt.Fprintf(w, "causeway_assembler_records_discarded_total %d\n", led.Discarded)
	fmt.Fprintf(w, "causeway_assembler_records_shed_total %d\n", led.Shed)
	fmt.Fprintf(w, "causeway_assembler_records_buffered %d\n", led.Buffered)
	fmt.Fprintf(w, "causeway_assembler_chains_completed_total %d\n", completions)
	fmt.Fprintf(w, "causeway_assembler_chains_judged_total %d\n", judgements)
}
