package tracestore

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"causeway/internal/analysis"
	"causeway/internal/probe"
	"causeway/internal/uuid"
)

// recLoc locates one event record on disk: its seq, and the frame that
// holds it — which segment, and where the frame's body lies within it. 24
// bytes per record in RAM (TestRecLocSize) versus the full probe.Record that
// logdb keeps resident — that ratio is what lets a store hold runs larger
// than memory.
type recLoc struct {
	seq uint64
	frameAt
}

// frameAt is where a frame's body lies: which segment, at what offset, how
// many bytes.
type frameAt struct {
	off  int64
	seg  int32
	size uint32
}

func (f frameAt) end() int64 { return f.off + int64(f.size) }

// maxRunBytes caps one read of the read path: readRuns merges byte-adjacent
// frames into runs of at most this many bytes (a frame larger than that is a
// run of its own). It also bounds the encode buffer a shard keeps between
// frames.
const maxRunBytes = 1 << 20

// maxFrameBytes is the largest frame the shard writes: probe.MaxFrameBytes,
// a variable only so that a test can split a run at a small cap.
var maxFrameBytes = probe.MaxFrameBytes

// maxKeptScratch bounds, in records, the scratch a shard or the store keeps
// between calls (a ship frame is a few hundred): one outsized batch or chain
// does not pin what it made the scratch grow to.
const maxKeptScratch = 4096

// chainIndex is one chain's in-memory index: only locations are kept, the
// records themselves stay on disk. locs is in disk order — the order the
// records were written, which every append, recovery and compaction keeps —
// and dirty says that order is not seq order, so a read sorts.
type chainIndex struct {
	locs  []recLoc
	dirty bool
	last  time.Time // newest wall-clock touch; drives retention
}

type chainSeq struct {
	chain uuid.UUID
	seq   uint64
}

// shard owns one directory of segment files plus the index over them.
// Chains are partitioned by Function UUID hash, so a chain's every event
// lands in the same shard and queries touch exactly one shard lock.
type shard struct {
	mu       sync.Mutex
	dir      string
	maxBytes int64

	chains   map[uuid.UUID]*chainIndex
	links    []probe.Record
	byParent map[chainSeq]uuid.UUID
	events   int // event records indexed

	active   *segmentWriter
	activeID int
	readers  map[int]*os.File

	sticky  error // first disk failure; shard keeps serving reads
	dropped int   // records lost to sticky failures or too large for a frame
	swept   int   // records removed by retention sweeps, counted at commit

	// Codec state and scratch reused under mu: grouping an insert by chain
	// and encoding each chain's run as a frame, and reading a chain back in
	// runs of frames.
	group  grouper
	run    []probe.Record     // a chain's run when it is not a stretch of the batch
	ents   []probe.IndexEntry // the entries of a run of Records the shard writes, for its index
	enc    probe.FrameEncoder
	dec    probe.FrameDecoder
	runBuf []byte
	reads  int // ReadAt calls of the read path (tests pin the layout with it)
}

func segName(id int) string { return fmt.Sprintf("%06d.seg", id) }

func (sh *shard) segPath(id int) string { return filepath.Join(sh.dir, segName(id)) }

// gcPath names the shard's compaction watermark file: the lowest live
// segment id, written tmp+rename before old segments are deleted so a
// crash mid-compaction never resurrects dropped (or duplicated) records.
func (sh *shard) gcPath() string { return filepath.Join(sh.dir, "gc") }

// openShard creates or recovers the shard rooted at dir. Torn segment
// tails (crashed writer) are truncated to the last complete frame and
// reported through warn; the readable prefix stands.
func openShard(dir string, maxBytes int64, warn func(string)) (*shard, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tracestore: shard dir: %w", err)
	}
	sh := &shard{
		dir:      dir,
		maxBytes: maxBytes,
		chains:   make(map[uuid.UUID]*chainIndex),
		byParent: make(map[chainSeq]uuid.UUID),
		readers:  make(map[int]*os.File),
	}
	ids, err := sh.listSegments()
	if err != nil {
		return nil, err
	}
	floor := sh.readGC()
	now := time.Now()
	lastID, lastSize := -1, int64(0)
	for _, id := range ids {
		if id < floor {
			// Leftover from a crash between compaction's gc write and
			// segment deletion: its records live on in the compacted
			// segment, so indexing it would duplicate them.
			os.Remove(sh.segPath(id))
			continue
		}
		size, err := sh.recoverSegment(id, now, warn)
		if err != nil {
			return nil, err
		}
		lastID, lastSize = id, size
	}
	if lastID >= 0 {
		sh.active, err = appendSegment(sh.segPath(lastID), lastSize)
		if err != nil {
			return nil, err
		}
		sh.activeID = lastID
	} else {
		sh.activeID = floor
		sh.active, err = createSegment(sh.segPath(sh.activeID))
		if err != nil {
			return nil, err
		}
	}
	return sh, nil
}

// listSegments returns the shard's segment ids in ascending order.
func (sh *shard) listSegments() ([]int, error) {
	entries, err := os.ReadDir(sh.dir)
	if err != nil {
		return nil, fmt.Errorf("tracestore: list shard: %w", err)
	}
	var ids []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".seg") {
			continue
		}
		id, err := strconv.Atoi(strings.TrimSuffix(name, ".seg"))
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids, nil
}

// readGC returns the compaction watermark, 0 if none was ever written.
func (sh *shard) readGC() int {
	b, err := os.ReadFile(sh.gcPath())
	if err != nil {
		return 0
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

func (sh *shard) writeGC(floor int) error {
	tmp := sh.gcPath() + ".tmp"
	if err := os.WriteFile(tmp, []byte(strconv.Itoa(floor)+"\n"), 0o644); err != nil {
		return fmt.Errorf("tracestore: gc watermark: %w", err)
	}
	if err := os.Rename(tmp, sh.gcPath()); err != nil {
		return fmt.Errorf("tracestore: gc watermark: %w", err)
	}
	return nil
}

// recoverSegment reads segment id as the record stream it is, indexing each
// frame's records at the frame, and truncates a torn tail in place. Returns
// the segment's recovered size. Frames are read through the index decode,
// which validates a frame as a full decode does but builds a pointer-free
// entry per record instead of a Record, and no string: the index keeps 24
// bytes of an event. Only a frame that holds a link decodes in full.
func (sh *shard) recoverSegment(id int, now time.Time, warn func(string)) (good int64, err error) {
	path := sh.segPath(id)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, fmt.Errorf("tracestore: open segment: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	br := bufio.NewReaderSize(f, 1<<16)
	if head, _ := br.Peek(len(oldSegMagic)); string(head) == oldSegMagic {
		return 0, fmt.Errorf("tracestore: %s is a CWTSEG1 segment, the per-record layout segments had before they were record streams; nothing reads it, so the store must be built again", path)
	}
	in := probe.NewFrameReader(br)
	for {
		ents, recs, body, rerr := in.NextIndex()
		if rerr != nil {
			err = rerr
			break
		}
		sh.indexFrame(ents, recs, id, body, uint32(in.Offset()-body), now)
	}
	good = in.Offset()
	switch {
	case err == io.EOF:
	case errors.Is(err, probe.ErrTruncated):
		if err := f.Truncate(good); err != nil {
			return 0, fmt.Errorf("tracestore: truncate torn tail: %w", err)
		}
		if warn != nil {
			warn(fmt.Sprintf("%s: torn tail truncated to %d bytes (%v)", path, good, err))
		}
	default:
		return 0, fmt.Errorf("tracestore: %s: %w", path, err)
	}
	if good < segHeader {
		// An empty segment, or one with a torn header: write the header so
		// the segment is appendable.
		if _, err := f.WriteAt([]byte(probe.StreamMagic), 0); err != nil {
			return 0, fmt.Errorf("tracestore: repair header: %w", err)
		}
		good = segHeader
	}
	return good, nil
}

// indexFrame adds the records of one frame to the in-memory index: ents
// are their entries and recs, which may be nil when no entry is a link,
// the records themselves. It looks a chain up once per run of its events
// and grows the chain's locations by the run's length: a frame the shard
// writes is one chain's run, while one recovered from an older segment may
// interleave chains. A link is the only record the index keeps whole, and
// it keeps a copy: recs is the caller's.
func (sh *shard) indexFrame(ents []probe.IndexEntry, recs []probe.Record, seg int, off int64, size uint32, now time.Time) {
	at := frameAt{off: off, seg: int32(seg), size: size}
	for i := 0; i < len(ents); {
		e := &ents[i]
		if e.Kind != probe.KindEvent {
			if e.Kind == probe.KindLink {
				rec := &recs[i]
				sh.links = append(sh.links, *rec)
				sh.byParent[chainSeq{rec.LinkParent, rec.LinkParentSeq}] = rec.LinkChild
			}
			i++
			continue
		}
		end := i + 1
		for end < len(ents) && ents[end].Kind == probe.KindEvent && ents[end].Chain == e.Chain {
			end++
		}
		ci := sh.growChain(e.Chain, end-i)
		for ; i < end; i++ {
			ci.add(&ents[i], at, now)
		}
	}
}

// indexCompacts adds one frame's records to the index straight from their
// compacts: cs is a run of one chain's events, as insertCompacts writes.
func (sh *shard) indexCompacts(cs []probe.Compact, at frameAt, now time.Time) {
	ci := sh.growChain(cs[0].Chain, len(cs))
	for i := range cs {
		ci.add(&cs[i].IndexEntry, at, now)
	}
}

// growChain returns chain's index, made room in for n more events, which
// it counts.
func (sh *shard) growChain(chain uuid.UUID, n int) *chainIndex {
	ci := sh.chainOf(chain)
	ci.locs = slices.Grow(ci.locs, n)
	sh.events += n
	return ci
}

// chainOf returns chain's index, creating it empty.
func (sh *shard) chainOf(chain uuid.UUID) *chainIndex {
	ci := sh.chains[chain]
	if ci == nil {
		ci = &chainIndex{}
		sh.chains[chain] = ci
	}
	return ci
}

// add locates the event of entry e in the frame at at; its wall time, or
// now when it carries none, is the chain's newest touch if it is newer.
func (ci *chainIndex) add(e *probe.IndexEntry, at frameAt, now time.Time) {
	if !ci.dirty && len(ci.locs) > 0 && e.Seq < ci.locs[len(ci.locs)-1].seq {
		ci.dirty = true
	}
	ci.locs = append(ci.locs, recLoc{seq: e.Seq, frameAt: at})
	wall := e.WallEnd
	if wall == probe.NoWallTime {
		wall = e.WallStart
	}
	touch := now
	if wall != probe.NoWallTime {
		touch = time.Unix(0, wall)
	}
	if touch.After(ci.last) {
		ci.last = touch
	}
}

// insert appends to the shard the records of recs that hash here: all of
// them from start on when next is nil, else the index list that begins at
// start and follows next to -1. It groups them by chain (grouper) and
// writes each chain's run as one frame, so a chain's records sit together
// in the segment and read back with one decode. With onlyNew set, records
// the shard has already indexed — events are identified by (chain, seq),
// links by (parent, parent seq) — are skipped: a rebalanced hash range
// replayed from segments may overlap records the new owner already received
// live, and accepting them twice would double-count chains in the
// conservation ledger (and duplicate events under the analyzer). It returns
// how many records it appended. Disk failures turn sticky: the failing run
// and all after it are dropped and counted rather than wedging the live
// ingest path, and the index only ever describes bytes that reached the
// writer.
func (sh *shard) insert(recs []probe.Record, start int, next []int32, now time.Time, onlyNew bool) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	accepted := 0
	order, ends := sh.group.byChain(recs, start, next)
	from := int32(0)
	for _, to := range ends {
		accepted += sh.appendLocked(frameRun{recs: sh.runOf(recs, order[from:to], onlyNew)}, now)
		from = to
	}
	sh.group.release()
	if cap(sh.run) > maxKeptScratch {
		sh.run = nil
	}
	if cap(sh.ents) > maxKeptScratch {
		sh.ents = nil
	}
	return accepted
}

// runOf returns the records at idx — one chain's run, in batch order — as
// one slice: a stretch of recs itself when they are one, else a copy in the
// shard's run scratch. With onlyNew it leaves out what the shard has
// indexed and what the run repeats.
func (sh *shard) runOf(recs []probe.Record, idx []int32, onlyNew bool) []probe.Record {
	first, n := int(idx[0]), len(idx)
	if !onlyNew && int(idx[n-1])-first == n-1 {
		return recs[first : first+n]
	}
	run := sh.run[:0]
	for _, i := range idx {
		if r := &recs[i]; !(onlyNew && sh.dupLocked(r, run)) {
			run = append(run, *r)
		}
	}
	sh.run = run
	return run
}

// grouper orders a shard's part of a batch by chain — an event's own, a
// link's parent (routeKey) — stably and in linear time: chains in the order
// they first appear, each chain's records, links included, in batch order.
// A shard receives its share of a mixed batch as a few records of many
// interleaved chains; written as they came, no two records of a chain would
// share a frame. The scratch is reused, so grouping allocates nothing in
// steady state.
type grouper struct {
	part  []int32             // the part's record indices, in batch order
	group map[uuid.UUID]int32 // chain → its group number
	of    []int32             // group number of part[p]
	slot  []int32             // per group: its size, then where its run ends
	order []int32             // the part regrouped
}

// byChain returns the record indices of the part — recs[start:] when next
// is nil, else the list start, next[start], … to -1 — grouped by chain, and
// where each chain's run ends in them. A part of one chain, which every
// assembler eviction is, comes back as it is, ungrouped.
func (g *grouper) byChain(recs []probe.Record, start int, next []int32) (order, ends []int32) {
	g.part = g.part[:0]
	first := routeKey(&recs[start])
	one := true
	for i := start; i >= 0 && i < len(recs); {
		g.part = append(g.part, int32(i))
		one = one && routeKey(&recs[i]) == first
		if next == nil {
			i++
		} else {
			i = int(next[i])
		}
	}
	if one {
		g.slot = append(g.slot[:0], int32(len(g.part)))
		return g.part, g.slot
	}
	if g.group == nil {
		g.group = make(map[uuid.UUID]int32)
	}
	clear(g.group)
	g.of, g.slot = g.of[:0], g.slot[:0]
	for _, i := range g.part {
		k := routeKey(&recs[i])
		id, ok := g.group[k]
		if !ok {
			id = int32(len(g.slot))
			g.group[k] = id
			g.slot = append(g.slot, 0)
		}
		g.of = append(g.of, id)
		g.slot[id]++
	}
	at := int32(0)
	for id, n := range g.slot {
		g.slot[id] = at
		at += n
	}
	g.order = slices.Grow(g.order[:0], len(g.part))[:len(g.part)]
	for p, i := range g.part {
		id := g.of[p]
		g.order[g.slot[id]] = i
		g.slot[id]++
	}
	return g.order, g.slot
}

// release drops scratch an outsized part made grow: a kept map is cleared
// on every grouping, so its size is a cost per call.
func (g *grouper) release() {
	if cap(g.part) > maxKeptScratch {
		*g = grouper{}
	}
}

// frameRun is one chain's run the shard writes as frames: Records, or
// compacts with the symbol table that holds their strings.
type frameRun struct {
	recs []probe.Record
	cs   []probe.Compact
	tab  *probe.SymbolTable
}

func (r *frameRun) len() int { return len(r.recs) + len(r.cs) }

// encode renders records [lo, hi) of r as one frame: through
// EncodeCompacts, whose string table is built by symbol id, for compacts.
func (r *frameRun) encode(enc *probe.FrameEncoder, lo, hi int) []byte {
	if r.tab != nil {
		return enc.EncodeCompacts(r.cs[lo:hi], r.tab)
	}
	return enc.Encode(r.recs[lo:hi])
}

// insertCompacts appends one chain's events, held compact, as insert
// appends the records they resolve to.
func (sh *shard) insertCompacts(cs []probe.Compact, tab *probe.SymbolTable, now time.Time) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.appendLocked(frameRun{cs: cs, tab: tab}, now)
}

// appendLocked writes a chain's run and indexes it — compacts by their own
// entries — returning how many records it wrote. The rest are dropped and
// counted: all of them once a disk failure has turned sticky, and a record
// whose frame alone would pass maxFrameBytes — no reader would take it
// back.
func (sh *shard) appendLocked(run frameRun, now time.Time) int {
	if sh.sticky == nil && sh.active.size >= sh.maxBytes {
		if err := sh.rotateLocked(); err != nil {
			sh.sticky = err
		}
	}
	n := 0
	if sh.sticky == nil {
		var err error
		n, err = sh.writeFrames(sh.active, &run, 0, run.len(), func(lo, hi int, off int64, size uint32) {
			if run.tab != nil {
				sh.indexCompacts(run.cs[lo:hi], frameAt{off: off, seg: int32(sh.activeID), size: size}, now)
				return
			}
			sh.ents = probe.AppendIndexEntries(sh.ents[:0], run.recs[lo:hi])
			sh.indexFrame(sh.ents, run.recs[lo:hi], sh.activeID, off, size, now)
		})
		if err != nil {
			sh.sticky = fmt.Errorf("tracestore: append: %w", err)
		}
	}
	sh.dropped += run.len() - n
	return n
}

// writeFrames writes records [lo, hi) of run to w as one frame or, where
// that frame would pass maxFrameBytes, each half the same way; a record too
// large for a frame of its own is left out (one read back from a segment
// never is). wrote sees each frame's records and where its body lies. It
// returns how many records it wrote, stopping at a write error.
func (sh *shard) writeFrames(w *segmentWriter, run *frameRun, lo, hi int, wrote func(lo, hi int, off int64, size uint32)) (int, error) {
	if lo == hi {
		return 0, nil
	}
	body := run.encode(&sh.enc, lo, hi)
	if len(body) > maxRunBytes {
		sh.enc = probe.FrameEncoder{} // body keeps the outsized buffer alive, the shard does not
	}
	if len(body) > maxFrameBytes {
		if hi-lo == 1 {
			return 0, nil
		}
		mid := lo + (hi-lo)/2
		n, err := sh.writeFrames(w, run, lo, mid, wrote)
		if err != nil {
			return n, err
		}
		m, err := sh.writeFrames(w, run, mid, hi, wrote)
		return n + m, err
	}
	off, err := w.append(body)
	if err != nil {
		return 0, err
	}
	wrote(lo, hi, off, uint32(len(body)))
	return hi - lo, nil
}

// dupLocked reports whether the shard already indexed r's identity, or run
// — the records about to be written with it — holds it.
func (sh *shard) dupLocked(r *probe.Record, run []probe.Record) bool {
	id := identity(r)
	for i := range run {
		if run[i].Kind == r.Kind && identity(&run[i]) == id {
			return true
		}
	}
	switch r.Kind {
	case probe.KindEvent:
		if ci := sh.chains[r.Chain]; ci != nil {
			for _, loc := range ci.locs {
				if loc.seq == r.Seq {
					return true
				}
			}
		}
	case probe.KindLink:
		_, ok := sh.byParent[id]
		return ok
	}
	return false
}

// identity is what InsertNew tells records apart by: an event's (chain,
// seq), a link's (parent, parent seq).
func identity(r *probe.Record) chainSeq {
	if r.Kind == probe.KindLink {
		return chainSeq{r.LinkParent, r.LinkParentSeq}
	}
	return chainSeq{r.Chain, r.Seq}
}

// rotateLocked seals the active segment and starts the next one.
func (sh *shard) rotateLocked() error {
	if err := sh.active.close(); err != nil {
		return fmt.Errorf("tracestore: seal segment: %w", err)
	}
	// A sealed segment may already have an open read handle; keep it.
	next := sh.activeID + 1
	w, err := createSegment(sh.segPath(next))
	if err != nil {
		return err
	}
	sh.active = w
	sh.activeID = next
	return nil
}

// reader returns an open read handle for segment id, caching it.
func (sh *shard) reader(id int) (*os.File, error) {
	if f, ok := sh.readers[id]; ok {
		return f, nil
	}
	f, err := os.Open(sh.segPath(id))
	if err != nil {
		return nil, fmt.Errorf("tracestore: open segment for read: %w", err)
	}
	sh.readers[id] = f
	return f, nil
}

// flushLocked makes buffered appends visible to readers.
func (sh *shard) flushLocked() error {
	if sh.sticky != nil {
		return sh.sticky
	}
	if err := sh.active.flush(); err != nil {
		sh.sticky = fmt.Errorf("tracestore: flush: %w", err)
		return sh.sticky
	}
	return nil
}

// eventsOf returns chain's records sorted by seq, reading them back from
// their segments. Missing chains yield nil.
func (sh *shard) eventsOf(chain uuid.UUID) ([]probe.Record, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ci := sh.chains[chain]
	if ci == nil {
		return nil, nil
	}
	return sh.eventsLocked(chain, ci)
}

// chainList returns the shard's chain UUIDs, unsorted (the store merges
// and sorts across shards).
func (sh *shard) chainList() []uuid.UUID {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]uuid.UUID, 0, len(sh.chains))
	for c := range sh.chains {
		out = append(out, c)
	}
	return out
}

func (sh *shard) childChain(parent uuid.UUID, seq uint64) (uuid.UUID, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c, ok := sh.byParent[chainSeq{parent, seq}]
	return c, ok
}

func (sh *shard) linkList() []probe.Record {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]probe.Record, len(sh.links))
	copy(out, sh.links)
	return out
}

func (sh *shard) sweptCount() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.swept
}

func (sh *shard) counts() (events, links, chains, dropped int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.events, len(sh.links), len(sh.chains), sh.dropped
}

func (sh *shard) flush() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.flushLocked()
}

func (sh *shard) close() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var first error
	if sh.active != nil {
		if err := sh.active.close(); err != nil && first == nil {
			first = err
		}
		sh.active = nil
	}
	for id, f := range sh.readers {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		delete(sh.readers, id)
	}
	if first == nil && sh.sticky != nil {
		first = sh.sticky
	}
	return first
}

// sweep drops chains whose newest event is older than cutoff and that parse
// clean — every invocation ran to completion; broken and anomalous chains
// are never swept, the analyzer should keep seeing them — then compacts the
// shard: survivors are rewritten into a fresh segment, the gc watermark
// advances, and only then are the old segments removed — the crash-safe
// order (rename beats delete) guarantees a reopening store sees either the
// old segments or the compacted one, never both.
func (sh *shard) sweep(cutoff time.Time) (dropped int, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.sticky != nil {
		return 0, sh.sticky
	}

	// Phase 1: pick victims.
	victims := make(map[uuid.UUID]bool)
	var parser analysis.ChainParser
	for c, ci := range sh.chains {
		if !ci.last.Before(cutoff) {
			continue
		}
		recs, rerr := sh.eventsLocked(c, ci)
		if rerr != nil {
			return 0, rerr
		}
		if parser.Parse(c, recs).Clean() {
			victims[c] = true
		}
	}
	if len(victims) == 0 {
		return 0, nil
	}

	// Phase 2: rewrite survivors into the next segment id — the kept links
	// first, then one run a surviving chain. Links whose parent chain was
	// dropped go with it (their child is gone too: a child chain shares the
	// parent's wall-clock era, and an incomplete child keeps its own chain
	// alive but not its link).
	newID := sh.activeID + 1
	tmp := filepath.Join(sh.dir, "compact.tmp")
	w, err := createSegment(tmp)
	if err != nil {
		return 0, err
	}
	abort := func(err error) (int, error) {
		w.close()
		os.Remove(tmp)
		return 0, err
	}
	type newLoc struct {
		chain uuid.UUID
		loc   recLoc
	}
	var newLocs []newLoc
	var keptLinks []probe.Record
	sweptRecs := 0
	for c := range victims {
		sweptRecs += len(sh.chains[c].locs)
	}
	for _, l := range sh.links {
		if victims[l.LinkParent] {
			sweptRecs++
			continue
		}
		keptLinks = append(keptLinks, l)
	}
	if _, err := sh.writeFrames(w, &frameRun{recs: keptLinks}, 0, len(keptLinks), func(int, int, int64, uint32) {}); err != nil {
		return abort(fmt.Errorf("tracestore: compact: %w", err))
	}
	survivors := make([]uuid.UUID, 0, len(sh.chains)-len(victims))
	for c := range sh.chains {
		if !victims[c] {
			survivors = append(survivors, c)
		}
	}
	sort.Slice(survivors, func(i, j int) bool { return uuid.Compare(survivors[i], survivors[j]) < 0 })
	for _, c := range survivors {
		recs, err := sh.eventsLocked(c, sh.chains[c])
		if err != nil {
			return abort(err)
		}
		if _, err := sh.writeFrames(w, &frameRun{recs: recs}, 0, len(recs), func(lo, hi int, off int64, size uint32) {
			for i := lo; i < hi; i++ {
				newLocs = append(newLocs, newLoc{chain: c, loc: recLoc{seq: recs[i].Seq, frameAt: frameAt{off: off, seg: int32(newID), size: size}}})
			}
		}); err != nil {
			return abort(fmt.Errorf("tracestore: compact: %w", err))
		}
	}
	if err := w.sync(); err != nil {
		return abort(fmt.Errorf("tracestore: compact: %w", err))
	}
	if err := w.close(); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("tracestore: compact: %w", err)
	}
	if err := os.Rename(tmp, sh.segPath(newID)); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("tracestore: compact: %w", err)
	}

	// Phase 3: commit. The watermark makes pre-compaction segments dead
	// even if their deletion below is interrupted.
	if err := sh.writeGC(newID); err != nil {
		return 0, err
	}
	// The watermark is durable: from here the victims' records are gone
	// whatever else fails, so the sweep ledger counts them now.
	sh.swept += sweptRecs
	oldActive := sh.activeID
	if cerr := sh.active.close(); cerr != nil {
		return 0, fmt.Errorf("tracestore: seal segment: %w", cerr)
	}
	sh.active = nil
	for id, f := range sh.readers {
		f.Close()
		delete(sh.readers, id)
	}
	for id := 0; id <= oldActive; id++ {
		os.Remove(sh.segPath(id))
	}

	// Phase 4: rebuild the index over the compacted segment and resume
	// appending after it.
	oldChains := sh.chains
	sh.chains = make(map[uuid.UUID]*chainIndex, len(survivors))
	sh.links = keptLinks
	sh.byParent = make(map[chainSeq]uuid.UUID, len(keptLinks))
	for _, l := range keptLinks {
		sh.byParent[chainSeq{l.LinkParent, l.LinkParentSeq}] = l.LinkChild
	}
	sh.events = 0
	for _, nl := range newLocs {
		ci := sh.chains[nl.chain]
		if ci == nil {
			ci = &chainIndex{last: oldChains[nl.chain].last}
			sh.chains[nl.chain] = ci
		}
		ci.locs = append(ci.locs, nl.loc)
		sh.events++
	}
	nextID := newID + 1
	w2, err := createSegment(sh.segPath(nextID))
	if err != nil {
		sh.sticky = err
		return len(victims), err
	}
	sh.active = w2
	sh.activeID = nextID
	return len(victims), nil
}

// eventsLocked is eventsOf with the lock already held. It reads the chain's
// frames in disk order through readRuns, decodes each frame once and copies
// out the chain's events (a frame's links belong to the chain but are not
// its events). The records come back in seq order, ties in insertion order.
func (sh *shard) eventsLocked(chain uuid.UUID, ci *chainIndex) ([]probe.Record, error) {
	if err := sh.flushLocked(); err != nil {
		return nil, err
	}
	locs := ci.locs
	out := make([]probe.Record, 0, len(locs))
	err := sh.readRuns(len(locs), func(p int) frameAt { return locs[p].frameAt }, func(p int, body []byte, err error) error {
		if err != nil {
			return err
		}
		if p > 0 && locs[p].frameAt == locs[p-1].frameAt {
			return nil // another event of the frame just decoded
		}
		recs, err := sh.dec.Decode(body)
		if err != nil {
			return fmt.Errorf("tracestore: read records: %w", err)
		}
		for i := range recs {
			if recs[i].Kind == probe.KindEvent && recs[i].Chain == chain {
				out = append(out, recs[i])
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if ci.dirty {
		sortBySeq(out)
	}
	return out, nil
}

func sortBySeq(recs []probe.Record) {
	slices.SortStableFunc(recs, func(a, b probe.Record) int { return cmp.Compare(a.Seq, b.Seq) })
}

// readRuns reads n frames named in disk order — frame(p) is the p-th — with
// byte-adjacent frames merged into runs, never across a segment and at most
// maxRunBytes a run (a frame larger than that is a run of its own), each run
// with one ReadAt into the shard's run buffer. It hands fn each frame's body,
// valid until fn returns — a frame named twice in a row once per naming —
// or, for every frame of a run that could not be read, the read's error and
// no body. It stops at the first error fn returns.
func (sh *shard) readRuns(n int, frame func(p int) frameAt, fn func(p int, body []byte, err error) error) error {
	defer func() {
		if cap(sh.runBuf) > maxRunBytes {
			sh.runBuf = nil
		}
	}()
	for p := 0; p < n; {
		first := frame(p)
		end := first.end()
		q := p + 1
		for ; q < n; q++ {
			f := frame(q)
			if f.seg == first.seg && f.end() == end {
				continue // the frame last taken in, named again
			}
			if f.seg != first.seg || f.off != end+frameHeader || f.end()-first.off > maxRunBytes {
				break
			}
			end = f.end()
		}
		run, err := sh.readRun(first.seg, first.off, end)
		for ; p < q; p++ {
			var body []byte
			if err == nil {
				f := frame(p)
				body = run[f.off-first.off:][:f.size]
			}
			if ferr := fn(p, body, err); ferr != nil {
				return ferr
			}
		}
	}
	return nil
}

// readRun reads segment seg's bytes [off, end) into the run buffer.
func (sh *shard) readRun(seg int32, off, end int64) ([]byte, error) {
	f, err := sh.reader(int(seg))
	if err != nil {
		return nil, err
	}
	if n := int(end - off); cap(sh.runBuf) < n {
		sh.runBuf = make([]byte, n)
	}
	run := sh.runBuf[:end-off]
	sh.reads++
	if _, err := f.ReadAt(run, off); err != nil {
		return nil, fmt.Errorf("tracestore: read records: %w", err)
	}
	return run, nil
}

// chainSlot is one chain of a scan: its index, and its events, decoded into
// the chain's slot of the shard's slab — a slice whose capacity is the
// chain's indexed event count, so no frame decoded into it can reach the
// next chain's slot.
type chainSlot struct {
	chain  uuid.UUID
	ci     *chainIndex
	events []probe.Compact
	failed bool // a read or decode failed: the chain is read again alone
}

// scanFrame is one frame of a scan, and the slot of the chain that holds it.
type scanFrame struct {
	frameAt
	slot int32
}

// scan hands fn every chain of the shard with its events, as eventsOf would
// return them but made compact through syms, reading the shard once: under
// the lock it decodes each of the shard's frames, in disk order and through
// readRuns, straight into its chain's slot of one slab of the shard's
// events, each frame's string table interned in syms once; fn runs after
// the lock is released. A chain whose read or decode fails, or whose frames
// hold other than the events its index counts, is read again through
// eventsLocked, which gives what Events gives — its warning included,
// through warn. The slab is the events' one backing array, and holds no
// pointer: a caller that keeps one chain's events keeps the whole shard's,
// which the garbage collector never scans.
func (sh *shard) scan(syms *probe.SymbolTable, warn func(string), fn func(chain uuid.UUID, events []probe.Compact)) {
	sh.mu.Lock()
	slots := sh.scanLocked(syms, warn)
	sh.mu.Unlock()
	for i := range slots {
		fn(slots[i].chain, slots[i].events)
	}
}

func (sh *shard) scanLocked(syms *probe.SymbolTable, warn func(string)) []chainSlot {
	// Slots in chain order: the DSCG's trees come in chain order, and its
	// passes walk each tree's events where they lie.
	slots := make([]chainSlot, 0, len(sh.chains))
	total := 0
	for c, ci := range sh.chains {
		slots = append(slots, chainSlot{chain: c, ci: ci})
		total += len(ci.locs)
	}
	slices.SortFunc(slots, func(a, b chainSlot) int { return uuid.Compare(a.chain, b.chain) })
	slab := make([]probe.Compact, total)
	var frames []scanFrame
	for i := range slots {
		s := &slots[i]
		n := len(s.ci.locs)
		s.events, slab = slab[:0:n], slab[n:]
		for p, l := range s.ci.locs {
			if p == 0 || l.frameAt != s.ci.locs[p-1].frameAt {
				frames = append(frames, scanFrame{frameAt: l.frameAt, slot: int32(i)})
			}
		}
	}
	slices.SortFunc(frames, func(a, b scanFrame) int {
		if c := cmp.Compare(a.seg, b.seg); c != 0 {
			return c
		}
		return cmp.Compare(a.off, b.off)
	})
	if sh.flushLocked() == nil {
		sh.readRuns(len(frames), func(p int) frameAt { return frames[p].frameAt }, func(p int, body []byte, err error) error {
			if s := &slots[frames[p].slot]; err != nil {
				s.failed = true
			} else if !s.failed {
				s.failed = !sh.decodeChain(s, syms, body)
			}
			return nil
		})
	}
	for i := range slots {
		s := &slots[i]
		if s.failed || len(s.events) != len(s.ci.locs) {
			recs, err := sh.eventsLocked(s.chain, s.ci)
			if err != nil {
				warn(fmt.Sprintf("events %s: %v", s.chain, err))
			}
			s.events = syms.AppendCompacts(nil, recs)
		} else if s.ci.dirty {
			slices.SortStableFunc(s.events, func(a, b probe.Compact) int { return cmp.Compare(a.Seq, b.Seq) })
		}
	}
	return slots
}

// decodeChain decodes body into the free part of s's slot and keeps the
// chain's events. It reports false when the frame does not decode or holds
// more of the chain's events than the slot has room for.
func (sh *shard) decodeChain(s *chainSlot, syms *probe.SymbolTable, body []byte) bool {
	kept := s.events
	recs, err := sh.dec.DecodeCompact(body, syms, kept[len(kept):cap(kept)])
	if err != nil {
		return false
	}
	for i := range recs {
		r := &recs[i]
		if r.Kind != probe.KindEvent || r.Chain != s.chain {
			continue
		}
		n := len(kept)
		if n == cap(kept) {
			return false
		}
		kept = kept[:n+1]
		if &kept[n] != r { // an event decoded in place may already sit where it is kept
			kept[n] = *r
		}
	}
	s.events = kept
	return true
}
