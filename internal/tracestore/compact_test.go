package tracestore

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"causeway/internal/ftl"
	"causeway/internal/probe"
)

// compactChains is one chain table's evictions as records: chains of every
// shape a segment frame lays out differently — wall times and none, empty
// identity strings, Semantics short and long, seq ties — and, with frames
// capped at maxFrameBytes bytes, runs that split in two and a record too
// large for a frame of its own.
func compactChains(maxFrame int) [][]probe.Record {
	wall := time.Date(2026, 10, 1, 12, 0, 0, 0, time.UTC)
	var chains [][]probe.Record
	for i := 0; i < 24; i++ {
		recs := nestedChain(chainID(byte(i+1)), i%5, "I"+strings.Repeat("f", i%3), wall.Add(time.Duration(i)*time.Millisecond))
		for j := range recs {
			recs[j].Process = []string{"proc00", "proc01", "proc02"}[(i+j/2)%3]
			recs[j].ProcType = "x86"
		}
		switch i % 6 {
		case 1: // no wall time
			for j := range recs {
				recs[j].WallStart, recs[j].WallEnd, recs[j].LatencyArmed = time.Time{}, time.Time{}, false
			}
		case 2: // empty identity strings
			for j := range recs {
				recs[j].Process, recs[j].ProcType, recs[j].Op = "", "", probe.OpID{}
			}
		case 3: // Semantics
			for j := range recs {
				recs[j].Semantics = "in: job=" + strings.Repeat("7", j)
			}
		case 4: // a tie: a resent record with the seq of the one before
			dup := recs[len(recs)/2]
			dup.Thread++
			recs = append(recs[:len(recs)/2+1], append([]probe.Record{dup}, recs[len(recs)/2+1:]...)...)
		}
		chains = append(chains, recs)
	}
	// A run whose frame passes maxFrame bytes, split at it, and a chain
	// with a record too large for a frame of its own, which both doors drop.
	split := nestedChain(chainID(101), 8, "Split", wall)
	for j := range split {
		split[j].Semantics = strings.Repeat("s", maxFrame/8)
	}
	huge := nestedChain(chainID(102), 0, "Huge", wall)
	huge[1].Semantics = strings.Repeat("h", maxFrame)
	return append(chains, split, huge)
}

// segmentFiles reads every file under dir's shard directories, by path
// relative to dir.
func segmentFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".seg") {
			return err
		}
		b, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		files[rel] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// The same chains written into one store through Insert, as records, and
// into another through InsertCompacts, held compact in one symbol table as
// a chain table's generation holds them, leave byte-identical segment
// files — across segment rotations, with runs split at the frame cap and
// a record too large for any frame dropped by both — and the same index.
func TestInsertCompactsMatchesInsert(t *testing.T) {
	defer func(old int) { maxFrameBytes = old }(maxFrameBytes)
	maxFrameBytes = 4096
	chains := compactChains(maxFrameBytes)
	dirs := [2]string{t.TempDir(), t.TempDir()}
	var stores [2]*Store
	for i, dir := range dirs {
		s, err := Open(dir, Options{Shards: 4, SegmentMaxBytes: 2048})
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}
	tab := probe.NewSymbols(1).Table(0)
	var cs []probe.Compact
	for _, recs := range chains {
		stores[0].Insert(recs...)
		cs = tab.AppendCompacts(cs[:0], recs)
		stores[1].InsertCompacts(cs, tab)
	}
	if stores[0].Dropped() != 1 || stores[1].Dropped() != 1 {
		t.Fatalf("dropped %d records through Insert and %d through InsertCompacts, want 1 each", stores[0].Dropped(), stores[1].Dropped())
	}
	if stores[0].Len() != stores[1].Len() {
		t.Fatalf("Insert indexed %d records, InsertCompacts %d", stores[0].Len(), stores[1].Len())
	}
	viewR, eventsR := indexView(stores[0])
	viewC, eventsC := indexView(stores[1])
	if eventsR != eventsC || len(viewR) != len(viewC) {
		t.Fatalf("index: %d events of %d chains through Insert, %d of %d through InsertCompacts", eventsR, len(viewR), eventsC, len(viewC))
	}
	for c, v := range viewR {
		w := viewC[c]
		if !reflect.DeepEqual(v.locs, w.locs) || v.dirty != w.dirty {
			t.Fatalf("chain %s indexed differently through the two doors", c)
		}
		if recs := stores[0].Events(c); len(recs) > 0 && recs[0].LatencyArmed && !v.last.Equal(w.last) {
			t.Fatalf("chain %s last touched at %v through Insert, %v through InsertCompacts", c, v.last, w.last)
		}
	}
	split := 0
	for _, v := range viewR {
		if len(v.locs) > 0 && v.locs[0].frameAt != v.locs[len(v.locs)-1].frameAt {
			split++
		}
	}
	if split == 0 {
		t.Fatal("no chain's run was split across frames")
	}
	for _, s := range stores {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	byRecords, byCompacts := segmentFiles(t, dirs[0]), segmentFiles(t, dirs[1])
	if len(byRecords) < 5 || len(byRecords) != len(byCompacts) {
		t.Fatalf("Insert wrote %d segment files, InsertCompacts %d", len(byRecords), len(byCompacts))
	}
	for path, b := range byRecords {
		if !bytes.Equal(byCompacts[path], b) {
			t.Fatalf("segment %s: %d bytes through Insert, %d different bytes through InsertCompacts", path, len(b), len(byCompacts[path]))
		}
	}
}

// Once the chain's index has room, a compact insert allocates nothing: the
// frame's table is stamped by symbol id in the shard's encoder, and the
// index entries are the compacts' own.
func TestStoreInsertCompactsAllocFree(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const batch, runs = 64, 50
	c := chainID(9)
	wall := time.Date(2026, 9, 26, 12, 0, 0, 0, time.UTC)
	recs := make([]probe.Record, batch)
	for i := range recs {
		recs[i] = ev(c, uint64(i+1), ftl.StubStart, "I", wall)
		recs[i].Semantics = "in: job=42 pages=3"
	}
	tab := probe.NewSymbols(1).Table(0)
	cs := tab.AppendCompacts(nil, recs)
	s.InsertCompacts(cs, tab)
	sh := s.shards[s.shardIndex(c)]
	sh.mu.Lock()
	ci := sh.chains[c]
	ci.locs = append(make([]recLoc, 0, (runs+3)*batch), ci.locs...)
	sh.mu.Unlock()
	if a := testing.AllocsPerRun(runs, func() { s.InsertCompacts(cs, tab) }); a != 0 {
		t.Errorf("a one-chain InsertCompacts of %d records allocates %v, want 0", batch, a)
	}
	if got := s.Events(c); len(got) != (runs+2)*batch || got[0].Chain != c || got[0].Semantics != recs[0].Semantics {
		t.Fatalf("chain holds %d events after the runs, want %d", len(got), (runs+2)*batch)
	}
	if _, ok := s.ChildChain(c, 1); ok {
		t.Fatal("a compact insert indexed a link")
	}
}
