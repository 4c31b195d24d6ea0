// Package logdb is the relational-style store the monitoring data is
// synthesized into after a run (§3: "the scattered logs are collected and
// eventually synthesized into a relational database").
//
// The analyzer needs exactly the two queries the paper describes for DSCG
// reconstruction — the set of unique Function UUIDs ever created, and the
// events sharing a UUID sorted by ascending event number — plus link lookup
// for oneway chain stitching and simple aggregate statistics. The store
// indexes records at insertion so both queries are O(result).
package logdb

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"causeway/internal/probe"
	"causeway/internal/uuid"
)

// Store holds merged monitoring records from all processes of a run.
// It is safe for concurrent insertion and querying.
type Store struct {
	mu       sync.RWMutex
	events   map[uuid.UUID]*chainRows // KindEvent rows by chain
	links    []probe.Record           // KindLink rows
	byParent map[chainSeq]uuid.UUID   // (parent chain, seq) -> child chain
	total    int
}

// chainRows holds one chain's event records. Insertion only appends and
// marks the chain dirty; the rows are sorted by seq lazily, at most once
// per insertion burst, so repeated analyzer queries over a settled store
// are O(result) instead of O(result·log result) each.
type chainRows struct {
	recs  []probe.Record
	dirty bool
}

type chainSeq struct {
	chain uuid.UUID
	seq   uint64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		events:   make(map[uuid.UUID]*chainRows),
		byParent: make(map[chainSeq]uuid.UUID),
	}
}

// Insert adds records to the store.
func (s *Store) Insert(recs ...probe.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range recs {
		s.insertLocked(&recs[i])
	}
}

func (s *Store) insertLocked(r *probe.Record) {
	s.total++
	switch r.Kind {
	case probe.KindEvent:
		rows, ok := s.events[r.Chain]
		if !ok {
			rows = &chainRows{}
			s.events[r.Chain] = rows
		}
		// A record appended in seq order keeps sorted rows sorted; only
		// true out-of-order arrival (cross-connection interleaving,
		// merged logs) marks the chain dirty.
		if !rows.dirty && len(rows.recs) > 0 && r.Seq < rows.recs[len(rows.recs)-1].Seq {
			rows.dirty = true
		}
		rows.recs = append(rows.recs, *r)
	case probe.KindLink:
		s.links = append(s.links, *r)
		s.byParent[chainSeq{r.LinkParent, r.LinkParentSeq}] = r.LinkChild
	}
}

// InsertNew adds only records the store does not hold yet — events
// identified by (chain, seq), links by (parent, parent seq), the
// identities tracestore.InsertNew uses — and returns how many were
// accepted as new. It is the replay and fleet-merge ingest path: a record
// that already arrived live, or in an earlier replay, counts once.
func (s *Store) InsertNew(recs ...probe.Record) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	accepted := 0
	for i := range recs {
		if r := &recs[i]; !s.holdsLocked(r) {
			s.insertLocked(r)
			accepted++
		}
	}
	return accepted
}

func (s *Store) holdsLocked(r *probe.Record) bool {
	if r.Kind == probe.KindLink {
		_, ok := s.byParent[chainSeq{r.LinkParent, r.LinkParentSeq}]
		return ok
	}
	if rows := s.events[r.Chain]; rows != nil {
		for i := range rows.recs {
			if rows.recs[i].Seq == r.Seq {
				return true
			}
		}
	}
	return false
}

// Records is the read side both record stores — this one and the disk
// store, internal/tracestore — expose; RangeRecords, WriteRecords, SaveFile
// and ComputeStats are written once against it.
type Records interface {
	Chains() []uuid.UUID
	Events(chain uuid.UUID) []probe.Record
	Links() []probe.Record
}

// RangeRecords streams every record of src whose routing UUID — a link's
// parent chain, an event's own chain — satisfies pred: links first, then
// events by chain (sorted) and seq. It is the replay scan: pred selects a
// moved hash range and the emitted records are shipped to the range's new
// owner. A non-nil error from emit aborts the scan.
func RangeRecords(src Records, pred func(uuid.UUID) bool, emit func(probe.Record) error) error {
	for _, l := range src.Links() {
		if !pred(l.LinkParent) {
			continue
		}
		if err := emit(l); err != nil {
			return err
		}
	}
	for _, c := range src.Chains() {
		if !pred(c) {
			continue
		}
		for _, r := range src.Events(c) {
			if err := emit(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// exportFrame is how many records WriteRecords puts in a frame — a
// shipper's batch, so a reader holds one ship frame's worth at a time.
const exportFrame = 256

// WriteRecords streams all of src's records to w as a record stream — the
// format probe.StreamSink writes and Load reads: a .ftlog file, the /exportz
// body — in RangeRecords order, which is independent of insertion order.
func WriteRecords(src Records, w io.Writer) error {
	sink := probe.NewStreamSink(w)
	frame := make([]probe.Record, 0, exportFrame)
	RangeRecords(src, func(uuid.UUID) bool { return true }, func(r probe.Record) error {
		if frame = append(frame, r); len(frame) < exportFrame {
			return nil
		}
		sink.AppendSpan(frame)
		frame = frame[:0]
		return sink.Err()
	})
	sink.AppendSpan(frame)
	return sink.Close()
}

// SaveFile persists src's export stream to path.
func SaveFile(src Records, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("save records: %w", err)
	}
	defer f.Close()
	if err := WriteRecords(src, f); err != nil {
		return err
	}
	return f.Close()
}

// Load merges one record stream into the store a frame at a time, so what
// it holds beyond the store is one frame. It returns the records merged and
// follows the collection step's one torn-tail policy: a stream cut mid-frame
// — what a crashed writer leaves; the paper's collection runs post-mortem —
// contributes its complete frames and counts one warning; any harder
// failure is the error, beside the records merged before it.
func (s *Store) Load(r io.Reader) (n, warnings int, err error) {
	err = probe.ReadFrames(r, func(recs []probe.Record) {
		s.Insert(recs...)
		n += len(recs)
	})
	if errors.Is(err, probe.ErrTruncated) {
		return n, 1, nil
	}
	return n, 0, err
}

// TornTails words Load's warning count; every CLI that loads logs prints
// this line.
func TornTails(warnings int) string {
	return fmt.Sprintf("! %d log file(s) had torn tails (crashed writers); their complete frames were merged", warnings)
}

// LoadGlob merges every log file matching pattern (e.g. "run1/*.ftlog"),
// in sorted order for determinism, under Load's policy: the warnings count
// the files with torn tails, and a hard error aborts and names its file.
func (s *Store) LoadGlob(pattern string) (n, warnings int, err error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return 0, 0, fmt.Errorf("logdb: glob %q: %w", pattern, err)
	}
	sort.Strings(paths)
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return n, warnings, fmt.Errorf("logdb: load: %w", err)
		}
		m, w, err := s.Load(f)
		f.Close()
		n, warnings = n+m, warnings+w
		if err != nil {
			return n, warnings, fmt.Errorf("logdb: load %q: %w", p, err)
		}
	}
	return n, warnings, nil
}

// Len reports the total number of inserted records (events + links).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.total
}

// Chains is the paper's first reconstruction query: the set of unique
// Function UUIDs ever created, in a deterministic (sorted) order.
func (s *Store) Chains() []uuid.UUID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]uuid.UUID, 0, len(s.events))
	for c := range s.events {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return uuid.Compare(out[i], out[j]) < 0 })
	return out
}

// Events is the paper's second query: all event records sharing a UUID,
// sorted by ascending event sequence number. The returned slice is a copy.
// The sort happens lazily, once per insertion burst: a clean chain is pure
// copy-out, so repeated queries over a settled store are O(result).
func (s *Store) Events(chain uuid.UUID) []probe.Record {
	s.mu.RLock()
	rows := s.events[chain]
	if rows == nil {
		s.mu.RUnlock()
		return nil
	}
	if rows.dirty {
		// Upgrade to the write lock and re-check: another query may have
		// sorted the chain while we waited.
		s.mu.RUnlock()
		s.mu.Lock()
		if rows.dirty {
			sort.SliceStable(rows.recs, func(i, j int) bool { return rows.recs[i].Seq < rows.recs[j].Seq })
			rows.dirty = false
		}
		out := make([]probe.Record, len(rows.recs))
		copy(out, rows.recs)
		s.mu.Unlock()
		return out
	}
	out := make([]probe.Record, len(rows.recs))
	copy(out, rows.recs)
	s.mu.RUnlock()
	return out
}

// ChildChain resolves the oneway link for the stub_start event at (parent
// chain, seq), if one was recorded.
func (s *Store) ChildChain(parent uuid.UUID, seq uint64) (uuid.UUID, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.byParent[chainSeq{parent, seq}]
	return c, ok
}

// Links returns all chain-link records.
func (s *Store) Links() []probe.Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]probe.Record, len(s.links))
	copy(out, s.links)
	return out
}

// Stats summarizes the run, mirroring the scale figures the paper reports
// for the commercial system (calls, unique methods/interfaces/components).
type Stats struct {
	Records    int // total event records
	Links      int
	Chains     int
	Calls      int // stub_start + collocated-merged count approximation
	Methods    int // unique (interface, operation) pairs
	Interfaces int
	Components int
	Processes  int
	Threads    int
}

// ComputeStats scans src and aggregates run statistics.
func ComputeStats(src Records) Stats {
	var st Stats
	methods := map[string]bool{}
	ifaces := map[string]bool{}
	comps := map[string]bool{}
	procs := map[string]bool{}
	threads := map[string]bool{}
	for _, c := range src.Chains() {
		st.Chains++
		for _, r := range src.Events(c) {
			st.Records++
			if r.Event.ProbeNumber() == 1 {
				st.Calls++
			}
			methods[r.Op.Interface+"::"+r.Op.Operation] = true
			ifaces[r.Op.Interface] = true
			comps[r.Op.Component] = true
			procs[r.Process] = true
			threads[fmt.Sprintf("%s/%d", r.Process, r.Thread)] = true
		}
	}
	// A oneway call has stub_start on the parent chain only; its skeleton
	// side starts with skel_start, so Calls from probe-1 events is exact.
	st.Links = len(src.Links())
	st.Methods = len(methods)
	st.Interfaces = len(ifaces)
	st.Components = len(comps)
	st.Processes = len(procs)
	st.Threads = len(threads)
	return st
}
