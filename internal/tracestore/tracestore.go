// Package tracestore is the disk-backed, sharded successor to logdb for
// the live-collection path. logdb keeps every record resident and guards
// the whole map with one lock — the right shape for one-shot offline
// analysis, the wrong one for a collection daemon that ingests many
// shipper connections for hours. tracestore partitions chains by Function
// UUID hash across independently locked shards (a chain's constant-size
// UUID keys all of its events, so no operation ever crosses a shard), and
// appends records to segment files that are record streams, the same bytes
// as a .ftlog (probe/sink.go): a shard's part of a batch is grouped by
// chain and each chain's run written as one probe frame, so a chain reads
// back in a few contiguous runs of frames rather than a read per record,
// and a closed store loads through logdb.LoadGlob("<dir>/shard-*/*.seg")
// with no tracestore code. Only a 24-byte location per event — the frame
// that holds it — stays in memory. Reopening reads each segment through
// probe.FrameReader, so a crashed collector's torn tails are truncated
// under the record stream's one torn-tail rule, and a retention sweep
// compacts away completed chains past a configurable age so the store can
// run unattended.
//
// The store satisfies analysis.Source, so both Reconstruct and
// ReconstructParallel run against it unchanged, and analysis.Scanner, so
// ReconstructParallel reads it a shard at a time in disk order.
package tracestore

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"causeway/internal/probe"
	"causeway/internal/uuid"
)

// Options configures Open. The zero value selects the defaults.
type Options struct {
	// Shards is the number of chain partitions; rounded up to a power of
	// two. A store remembers its shard count in MANIFEST, and reopening
	// with a different value is an error (records would hash to the wrong
	// shard). Default 16.
	Shards int
	// SegmentMaxBytes rotates a shard's active segment once it grows past
	// this size. Default 64 MiB.
	SegmentMaxBytes int64
}

const (
	defaultShards     = 16
	defaultSegmentMax = 64 << 20
	manifestName      = "MANIFEST"
)

// Store is a sharded on-disk trace store. It is safe for concurrent
// insertion and querying; operations on different chains contend only
// when their UUIDs hash to the same shard.
type Store struct {
	dir    string
	shards []*shard
	mask   uint64

	warnMu   sync.Mutex
	warnings []string

	routeMu sync.Mutex
	routes  []*route // free routing scratch for mixed batches
}

// maxFreeRoutes bounds the free routing scratch: one per mixed batch routed
// at once, which is one per inserting goroutine. A free list rather than a
// sync.Pool, which the race detector empties at random: the alloc ceiling
// runs under -race in CI.
const maxFreeRoutes = 16

// route threads a mixed batch into one index list per shard: head[k] is
// shard k's first record, next[i] the record after i in its shard, -1 ends
// a list.
type route struct {
	head, next []int32
}

// Open creates or reopens the store rooted at dir, recovering every
// shard's segments (truncating torn tails, dropping segments below the
// compaction watermark). No operation crosses a shard, so shards recover
// concurrently, on up to GOMAXPROCS goroutines; the result is the same as
// recovering them in order: warnings in shard order, and on failure the
// error of the lowest-numbered failing shard, with every opened shard
// closed again.
func Open(dir string, opts Options) (*Store, error) {
	if opts.Shards <= 0 {
		opts.Shards = defaultShards
	}
	opts.Shards = nextPow2(opts.Shards)
	if opts.SegmentMaxBytes <= 0 {
		opts.SegmentMaxBytes = defaultSegmentMax
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tracestore: open: %w", err)
	}
	shards, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	if shards == 0 {
		shards = opts.Shards
		if err := writeManifest(dir, shards); err != nil {
			return nil, err
		}
	}
	s := &Store{dir: dir, mask: uint64(shards - 1)}
	s.shards = make([]*shard, shards)
	warns := make([][]string, shards)
	errs := make([]error, shards)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	workers := min(runtime.GOMAXPROCS(0), shards)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// Workers stop taking shards once one has failed. Shards are
			// taken in ascending order, so every shard below a failed one
			// was taken before it and the lowest failing shard is found.
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= shards {
					return
				}
				s.shards[i], errs[i] = openShard(filepath.Join(dir, fmt.Sprintf("shard-%03d", i)), opts.SegmentMaxBytes,
					func(msg string) { warns[i] = append(warns[i], msg) })
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, sh := range s.shards {
				if sh != nil {
					sh.close()
				}
			}
			return nil, err
		}
	}
	for _, w := range warns {
		s.warnings = append(s.warnings, w...)
	}
	return s, nil
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func loadManifest(dir string) (int, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("tracestore: manifest: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "shards "); ok {
			n, err := strconv.Atoi(strings.TrimSpace(rest))
			if err != nil || n < 1 || n != nextPow2(n) {
				return 0, fmt.Errorf("tracestore: manifest: bad shard count %q", rest)
			}
			return n, nil
		}
	}
	return 0, fmt.Errorf("tracestore: manifest: no shard count")
}

func writeManifest(dir string, shards int) error {
	body := fmt.Sprintf("causeway tracestore v1\nshards %d\n", shards)
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, []byte(body), 0o644); err != nil {
		return fmt.Errorf("tracestore: manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("tracestore: manifest: %w", err)
	}
	return nil
}

// shardIndex hashes a Function UUID to its shard with the canonical
// chain hash (uuid.Hash64, shared with sampling and the cluster ring).
// The mask trick needs the power-of-two shard count Open enforces.
func (s *Store) shardIndex(c uuid.UUID) int {
	return int(uuid.Hash64(c) & s.mask)
}

// routeKey is the chain a record belongs to for routing and on-disk
// grouping: an event's own, a link's parent — so ChildChain lookups hit the
// same shard that indexed the link.
func routeKey(r *probe.Record) uuid.UUID {
	if r.Kind == probe.KindLink {
		return r.LinkParent
	}
	return r.Chain
}

func (s *Store) shardOf(r *probe.Record) int { return s.shardIndex(routeKey(r)) }

func (s *Store) warn(msg string) {
	s.warnMu.Lock()
	s.warnings = append(s.warnings, msg)
	s.warnMu.Unlock()
}

// Dir returns the directory the store is rooted at. A collector keeps its
// frame journal beside the shards, in Dir()/journal.
func (s *Store) Dir() string { return s.dir }

// Warnings returns recovery and read warnings accumulated so far.
func (s *Store) Warnings() []string {
	s.warnMu.Lock()
	defer s.warnMu.Unlock()
	out := make([]string, len(s.warnings))
	copy(out, s.warnings)
	return out
}

// Insert appends records, borrowing recs for the call (probe.RecordStore):
// each chain's records are framed into its shard's segment and only their
// location kept.
func (s *Store) Insert(recs ...probe.Record) { s.insert(recs, false) }

// InsertCompacts appends one chain's event records, held compact, their
// strings tab's (probe.CompactStore): the chain table's door, through which
// an evicted chain reaches its shard with no string resolved or hashed.
// The segment bytes and the index are what Insert writes for the records
// the compacts resolve to. It borrows cs for the call.
func (s *Store) InsertCompacts(cs []probe.Compact, tab *probe.SymbolTable) {
	if len(cs) == 0 {
		return
	}
	s.shards[s.shardIndex(cs[0].Chain)].insertCompacts(cs, tab, time.Now())
}

// InsertNew appends only records the store has not indexed yet — events
// identified by (chain, seq), links by (parent, parent seq) — and
// returns how many were accepted as new. It is the replay ingest path:
// after a ring rebalance the new owner of a hash range replays that
// range from the old owner's segments, and any records it already
// received live must not be double-counted.
func (s *Store) InsertNew(recs ...probe.Record) int { return s.insert(recs, true) }

// insert routes recs to their shards, each shard's lock taken once. A batch
// of one shard — every chain the streaming assembler evicts, since a chain
// hashes to one shard — goes to it as it is. A mixed batch is threaded into
// one index list per shard (a route), which the shard walks under its lock,
// and the route is recycled. Routing copies no record; a shard copies a
// chain's run only to frame it when the run is not a stretch of the batch.
func (s *Store) insert(recs []probe.Record, onlyNew bool) int {
	if len(recs) == 0 {
		return 0
	}
	now := time.Now()
	first := s.shardOf(&recs[0])
	mixed := false
	for i := 1; i < len(recs) && !mixed; i++ {
		// A run of one chain's records needs no hashing to be seen as such.
		mixed = routeKey(&recs[i]) != routeKey(&recs[i-1]) && s.shardOf(&recs[i]) != first
	}
	if !mixed {
		return s.shards[first].insert(recs, 0, nil, now, onlyNew)
	}
	rt := s.takeRoute()
	for k := range rt.head {
		rt.head[k] = -1
	}
	rt.next = slices.Grow(rt.next[:0], len(recs))[:len(recs)]
	for i := len(recs) - 1; i >= 0; i-- {
		k := s.shardOf(&recs[i])
		rt.next[i], rt.head[k] = rt.head[k], int32(i)
	}
	accepted := 0
	for k, sh := range s.shards {
		if rt.head[k] >= 0 {
			accepted += sh.insert(recs, int(rt.head[k]), rt.next, now, onlyNew)
		}
	}
	s.putRoute(rt)
	return accepted
}

func (s *Store) takeRoute() *route {
	s.routeMu.Lock()
	defer s.routeMu.Unlock()
	if n := len(s.routes); n > 0 {
		rt := s.routes[n-1]
		s.routes = s.routes[:n-1]
		return rt
	}
	return &route{head: make([]int32, len(s.shards))}
}

func (s *Store) putRoute(rt *route) {
	if cap(rt.next) > maxKeptScratch {
		rt.next = nil
	}
	s.routeMu.Lock()
	defer s.routeMu.Unlock()
	if len(s.routes) < maxFreeRoutes {
		s.routes = append(s.routes, rt)
	}
}

// Chains returns every chain UUID in the store, sorted — the same
// deterministic order logdb.Chains yields, which keeps reconstruction
// output identical across backends.
func (s *Store) Chains() []uuid.UUID {
	var out []uuid.UUID
	for _, sh := range s.shards {
		out = append(out, sh.chainList()...)
	}
	sort.Slice(out, func(i, j int) bool { return uuid.Compare(out[i], out[j]) < 0 })
	return out
}

// Events returns chain's event records sorted by seq, read back from the
// shard's segments. Read failures surface as warnings and a truncated
// result rather than an error, preserving the analysis.Source signature.
func (s *Store) Events(chain uuid.UUID) []probe.Record {
	recs, err := s.shards[s.shardIndex(chain)].eventsOf(chain)
	if err != nil {
		s.warn(fmt.Sprintf("events %s: %v", chain, err))
	}
	return recs
}

// Parts and ScanPart make the store an analysis.Scanner, a shard a part:
// ReconstructParallel reads the store one shard at a time, each in one pass
// over its segments in disk order, instead of a chain at a time.
func (s *Store) Parts() int { return len(s.shards) }

// ScanPart calls fn once for each chain of shard p with the chain's events
// as Events returns them, a failed read's warning included, made compact
// through syms: their strings interned there, their link blocks dropped.
// fn runs with no lock held and may keep events; every chain of the shard
// shares their backing array, so keeping one chain's events keeps the
// shard's.
func (s *Store) ScanPart(p int, syms *probe.SymbolTable, fn func(chain uuid.UUID, events []probe.Compact)) {
	s.shards[p].scan(syms, s.warn, fn)
}

// ChildChain resolves the oneway link recorded for (parent, seq).
func (s *Store) ChildChain(parent uuid.UUID, seq uint64) (uuid.UUID, bool) {
	return s.shards[s.shardIndex(parent)].childChain(parent, seq)
}

// Links returns all link records, sorted by (parent, seq) for determinism
// across shard layouts.
func (s *Store) Links() []probe.Record {
	var out []probe.Record
	for _, sh := range s.shards {
		out = append(out, sh.linkList()...)
	}
	sort.Slice(out, func(i, j int) bool {
		if c := uuid.Compare(out[i].LinkParent, out[j].LinkParent); c != 0 {
			return c < 0
		}
		return out[i].LinkParentSeq < out[j].LinkParentSeq
	})
	return out
}

// Len reports the number of records indexed (events + links), matching
// logdb.Store.Len.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		e, l, _, _ := sh.counts()
		n += e + l
	}
	return n
}

// Swept reports records removed by retention sweeps (Sweep). Together
// with Len and Dropped it closes the store's side of the collection
// ledger: every record ever inserted is indexed, swept, or dropped —
//
//	inserted == Len() + Swept() + Dropped()
//
// so a batch arriving while a sweep compacts cannot vanish silently.
func (s *Store) Swept() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.sweptCount()
	}
	return n
}

// Dropped reports records lost to shard disk failures, and records too
// large for a frame of their own (probe.MaxFrameBytes), which are never
// written.
func (s *Store) Dropped() int {
	n := 0
	for _, sh := range s.shards {
		_, _, _, d := sh.counts()
		n += d
	}
	return n
}

// Flush pushes buffered appends in every shard to the OS.
func (s *Store) Flush() error {
	var first error
	for _, sh := range s.shards {
		if err := sh.flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close flushes and closes every shard's files. The store must not be
// used afterwards.
func (s *Store) Close() error {
	var first error
	for _, sh := range s.shards {
		if err := sh.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Sweep drops completed chains whose newest event is older than olderThan
// and compacts every shard that lost any. It returns the number of chains
// dropped. Incomplete chains — still running, or torn by a crashed
// process — survive regardless of age.
func (s *Store) Sweep(olderThan time.Duration) (int, error) {
	cutoff := time.Now().Add(-olderThan)
	dropped := 0
	var first error
	for _, sh := range s.shards {
		n, err := sh.sweep(cutoff)
		dropped += n
		if err != nil && first == nil {
			first = err
		}
	}
	return dropped, first
}
