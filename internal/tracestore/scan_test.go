package tracestore

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"causeway/internal/analysis"
	"causeway/internal/probe"
	"causeway/internal/render"
	"causeway/internal/uuid"
	"causeway/internal/workload"
)

// scanAll collects what every shard's scan hands over, resolved through the
// scan's symbols, failing on a chain handed over twice.
func scanAll(t testing.TB, s *Store) map[uuid.UUID][]probe.Record {
	t.Helper()
	out := make(map[uuid.UUID][]probe.Record)
	syms := probe.NewSymbols(s.Parts())
	for p := 0; p < s.Parts(); p++ {
		s.ScanPart(p, syms.Table(p), func(c uuid.UUID, events []probe.Compact) {
			if _, dup := out[c]; dup {
				t.Fatalf("chain %s handed over twice", c.Short())
			}
			recs := make([]probe.Record, len(events))
			for i := range events {
				if events[i].Part != uint32(p) {
					t.Fatalf("chain %s: shard %d's scan made a record of part %d", c.Short(), p, events[i].Part)
				}
				syms.Resolve(&recs[i], &events[i])
			}
			out[c] = recs
		})
	}
	return out
}

// withoutLinkBlocks is recs with every link block cleared: what a compact
// record keeps of them.
func withoutLinkBlocks(recs []probe.Record) []probe.Record {
	out := slices.Clone(recs)
	for i := range out {
		out[i].LinkParent, out[i].LinkParentSeq, out[i].LinkChild = uuid.UUID{}, 0, uuid.UUID{}
	}
	return out
}

// rendered is what a `causectl -store` query renders of g.
func rendered(g *analysis.DSCG) string {
	g.ComputeLatency()
	g.ComputeCPU()
	return render.DSCGString(g)
}

// sameReconstruction requires ReconstructParallel at 4 workers — the shard
// scan — to render what ReconstructFrom renders, a chain at a time through
// Events, and to warn what it warns. It returns the warnings.
func sameReconstruction(t *testing.T, label string, s *Store) []string {
	t.Helper()
	before := len(s.Warnings())
	want := rendered(analysis.ReconstructFrom(s))
	seqWarns := s.Warnings()[before:]
	got := rendered(analysis.ReconstructParallel(s, 4))
	parWarns := s.Warnings()[before+len(seqWarns):]
	if got != want || want == "" {
		t.Fatalf("%s: the scan renders %d bytes, ReconstructFrom %d", label, len(got), len(want))
	}
	slices.Sort(seqWarns)
	slices.Sort(parWarns)
	if !reflect.DeepEqual(parWarns, seqWarns) {
		t.Fatalf("%s: the scan warns\n%v\nReconstructFrom warns\n%v", label, parWarns, seqWarns)
	}
	return seqWarns
}

// scanReadsRuns pins the scan's reads: a shard's scan reads its frames in
// one ReadAt per run of byte-adjacent frames, and no chain is read again.
func scanReadsRuns(t *testing.T, ts *Store) {
	t.Helper()
	for k, sh := range ts.shards {
		sh.mu.Lock()
		var frames []frameAt
		for _, ci := range sh.chains {
			for _, l := range ci.locs {
				frames = append(frames, l.frameAt)
			}
		}
		slices.SortFunc(frames, func(a, b frameAt) int {
			if a.seg != b.seg {
				return int(a.seg - b.seg)
			}
			return int(a.off - b.off)
		})
		frames = slices.Compact(frames)
		runs := 0
		for i, f := range frames {
			if i == 0 || f.seg != frames[i-1].seg || f.off != frames[i-1].end()+frameHeader {
				runs++
			}
		}
		sh.reads = 0
		sh.mu.Unlock()
		ts.ScanPart(k, probe.NewSymbols(1).Table(0), func(uuid.UUID, []probe.Compact) {})
		sh.mu.Lock()
		reads := sh.reads
		sh.mu.Unlock()
		if reads != runs {
			t.Fatalf("shard %d: the scan made %d reads, its frames lie in %d runs", k, reads, runs)
		}
	}
}

// The shard scan reconstructs byte for byte what ReconstructFrom does, with
// the same warnings, on a store with dirty chains, oneway links stitched
// and orphaned, several segments a shard, a swept and compacted shard, a
// recovered torn tail, and a segment that cannot be read after Open.
func TestScanMatchesReconstructFrom(t *testing.T) {
	dir := t.TempDir()
	ts, err := Open(dir, Options{Shards: 4, SegmentMaxBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	batches, swept := layoutBatches()
	feed(ts, batches, nil)
	if n, err := ts.Sweep(time.Hour); err != nil || n != len(swept) {
		t.Fatalf("Sweep dropped %d chains, want %d: %v", n, len(swept), err)
	}
	// A workload after the sweep: every process's records in turn, so a
	// chain's client and server halves arrive out of seq order.
	sys, err := workload.Generate(workload.Config{
		Processes: 3, Threads: 4, Components: 8, Interfaces: 6, Methods: 16,
		Calls: 600, OnewayPermille: 150, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]string, 0, len(sys.Sinks))
	for p := range sys.Sinks {
		procs = append(procs, p)
	}
	sort.Strings(procs)
	var recs []probe.Record
	for _, p := range procs {
		recs = append(recs, sys.Sinks[p].Snapshot()...)
	}
	for i := 0; i < len(recs); i += 64 {
		ts.Insert(recs[i:min(i+64, len(recs))]...)
	}

	dirty, multiSeg := 0, -1
	for k, sh := range ts.shards {
		segs := map[int32]bool{}
		for _, ci := range sh.chains {
			if ci.dirty {
				dirty++
			}
			for _, l := range ci.locs {
				segs[l.seg] = true
			}
		}
		if len(segs) > 1 && multiSeg < 0 {
			multiSeg = k
		}
	}
	if dirty == 0 || multiSeg < 0 || len(ts.Links()) == 0 {
		t.Fatalf("the store needs dirty chains (%d), a shard of several segments (%d) and links (%d)", dirty, multiSeg, len(ts.Links()))
	}
	if w := sameReconstruction(t, "live", ts); len(w) != 0 {
		t.Fatalf("live: warnings %v", w)
	}
	scanReadsRuns(t, ts)
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}

	// A torn tail, which Open truncates.
	ids, err := (&shard{dir: filepath.Join(dir, "shard-000")}).listSegments()
	if err != nil || len(ids) == 0 {
		t.Fatalf("shard 0 segments %v: %v", ids, err)
	}
	tail := shardSeg(dir, 0, ids[len(ids)-1])
	info, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(tail, info.Size()-7); err != nil {
		t.Fatal(err)
	}
	if ts, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	if w := ts.Warnings(); len(w) != 1 || !strings.Contains(w[0], "torn tail") {
		t.Fatalf("reopened: warnings %v, want the torn tail", w)
	}
	if w := sameReconstruction(t, "reopened", ts); len(w) != 0 {
		t.Fatalf("reopened: warnings %v", w)
	}

	// A segment cut short under the open store: the chains with a frame
	// past the cut fail to read, the rest of the shard reads on.
	sh := ts.shards[multiSeg]
	sh.mu.Lock()
	first := int32(sh.activeID)
	for _, ci := range sh.chains {
		first = min(first, ci.locs[0].seg)
	}
	sh.mu.Unlock()
	cut := shardSeg(dir, multiSeg, int(first))
	if info, err = os.Stat(cut); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(cut, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	w := sameReconstruction(t, "unreadable", ts)
	if len(w) == 0 || len(w) >= len(sh.chains) {
		t.Fatalf("unreadable: %d warnings over the shard's %d chains, want some chains unread", len(w), len(sh.chains))
	}
}

// Scans race inserts and retention sweeps on a live store: run under -race
// in CI. The writers go on until several scans and sweeps have run beside
// them; once they are done, the scan reconstructs what ReconstructFrom does.
func TestScanConcurrentWithInsertAndSweep(t *testing.T) {
	ts, err := Open(t.TempDir(), Options{Shards: 4, SegmentMaxBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	const writers, minChains, maxChains, overlap = 3, 100, 5000, 5
	old := time.Now().Add(-2 * time.Hour)
	var scans, sweeps atomic.Int64
	var ww, rw sync.WaitGroup
	stop := make(chan struct{})
	loop := func(step func() error, n *atomic.Int64) {
		defer rw.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := step(); err != nil {
				t.Error(err)
				return
			}
			n.Add(1)
		}
	}
	rw.Add(2)
	go loop(func() error { analysis.ReconstructParallel(ts, 4); return nil }, &scans)
	go loop(func() error { _, err := ts.Sweep(time.Hour); return err }, &sweeps)
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < maxChains && (i < minChains || scans.Load() < overlap || sweeps.Load() < overlap); i++ {
				wall := time.Now()
				if i%2 == 0 {
					wall = old // clean and old: a sweep takes it
				}
				c := uuid.UUID{0: byte(w), 1: byte(i), 2: byte(i >> 8), 15: 0x42}
				recs := nestedChain(c, 1+i%3, "IRace", wall)
				half := len(recs) / 2
				ts.Insert(recs[half:]...) // the second half first: a dirty chain
				ts.Insert(recs[:half]...)
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	rw.Wait()
	if scans.Load() < overlap || sweeps.Load() < overlap {
		t.Fatalf("%d scans and %d sweeps ran beside the writers, want %d of each", scans.Load(), sweeps.Load(), overlap)
	}
	if w := sameReconstruction(t, "after the race", ts); len(w) != 0 {
		t.Fatalf("warnings %v", w)
	}
}
