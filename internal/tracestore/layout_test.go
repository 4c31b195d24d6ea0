package tracestore

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"

	"causeway/internal/analysis"
	"causeway/internal/ftl"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/render"
	"causeway/internal/uuid"
)

// nestedChain is one root call with calls nested calls inside its skeleton
// — the shape of a real chain, and a clean Figure-4 parse.
func nestedChain(c uuid.UUID, calls int, iface string, wall time.Time) []probe.Record {
	seq := uint64(0)
	add := func(out []probe.Record, e ftl.Event) []probe.Record {
		seq++
		return append(out, ev(c, seq, e, iface, wall))
	}
	out := add(add(nil, ftl.StubStart), ftl.SkelStart)
	for i := 0; i < calls; i++ {
		out = add(add(add(add(out, ftl.StubStart), ftl.SkelStart), ftl.SkelEnd), ftl.StubEnd)
	}
	return add(add(out, ftl.SkelEnd), ftl.StubEnd)
}

// layoutBatch is one call into both stores.
type layoutBatch struct {
	recs    []probe.Record
	onlyNew bool
}

// layoutBatches builds interleaved mixed batches over chains: seq ties
// (a resent record with the same seq), out-of-sequence arrivals (a chain's
// second half in the first batch), links, one chain long enough that its
// two frames lie in different segments, and an InsertNew replay that carries
// duplicates inside one batch. swept are the chains a Sweep(time.Hour)
// must drop: old, clean, complete.
func layoutBatches() (batches []layoutBatch, swept map[uuid.UUID]bool) {
	rng := rand.New(rand.NewSource(21))
	old := time.Now().Add(-2 * time.Hour).Round(0)
	fresh := time.Now().Round(0)
	swept = make(map[uuid.UUID]bool)
	const nchains = 40
	halves := [2][][]probe.Record{}
	for k := 0; k < nchains; k++ {
		c := chainID(byte(k + 1))
		wall, iface := fresh, "IFresh"
		if k%3 == 0 {
			wall, iface = old, "IOld"
		}
		calls := 1 + rng.Intn(4)
		if k == 7 {
			calls = 24 // spans a rotation
		}
		recs := nestedChain(c, calls, iface, wall)
		switch {
		case k%5 == 1:
			// A resend: the same seq twice, told apart by thread.
			tie := recs[2]
			tie.Thread = 8
			recs = slices.Insert(recs, 3, tie)
		case k%4 == 2:
			// A oneway fork at the first nested stub start.
			recs = slices.Insert(recs, 3, link(c, recs[2].Seq, chainID(byte(k+101))))
		}
		if k%3 == 0 && k%5 != 1 {
			swept[c] = true
		}
		mid := len(recs) / 2
		first, second := recs[:mid], recs[mid:]
		if k%6 == 4 {
			first, second = second, first // out of sequence
		}
		halves[0] = append(halves[0], first)
		halves[1] = append(halves[1], second)
	}
	for _, h := range halves {
		// Round-robin over the chains: no two records of a chain adjacent.
		var b []probe.Record
		for i := 0; ; i++ {
			more := false
			for _, recs := range h {
				if i < len(recs) {
					b = append(b, recs[i])
					more = true
				}
			}
			if !more {
				break
			}
		}
		batches = append(batches, layoutBatch{recs: b})
	}
	// A replay: part of what is held, two new chains, all of it twice.
	var replay []probe.Record
	for i := 0; i < len(batches[0].recs); i += 3 {
		replay = append(replay, batches[0].recs[i])
	}
	for k := 0; k < 2; k++ {
		replay = append(replay, nestedChain(chainID(byte(200+k)), 2, "IReplayed", fresh)...)
	}
	rng.Shuffle(len(replay), func(i, j int) { replay[i], replay[j] = replay[j], replay[i] })
	batches = append(batches, layoutBatch{recs: append(replay, replay...), onlyNew: true})
	return batches, swept
}

// feed inserts batches into s — all of them, or only the records keep
// admits — and returns what each InsertNew accepted.
func feed(s replayStore, batches []layoutBatch, keep func(*probe.Record) bool) []int {
	var accepted []int
	for _, b := range batches {
		recs := b.recs
		if keep != nil {
			recs = nil
			for i := range b.recs {
				if keep(&b.recs[i]) {
					recs = append(recs, b.recs[i])
				}
			}
		}
		if b.onlyNew {
			accepted = append(accepted, s.InsertNew(recs...))
		} else {
			s.Insert(recs...)
		}
	}
	return accepted
}

// sameAsLogdb checks every read a store offers against the logdb reference.
func sameAsLogdb(t *testing.T, label string, ts *Store, ref *logdb.Store) {
	t.Helper()
	if got, want := ts.Len(), ref.Len(); got != want {
		t.Fatalf("%s: Len %d, want %d", label, got, want)
	}
	chains := ts.Chains()
	if want := ref.Chains(); !reflect.DeepEqual(chains, want) {
		t.Fatalf("%s: %d chains, want %d", label, len(chains), len(want))
	}
	for _, c := range chains {
		sameRecords(t, label+" events "+c.Short(), ts.Events(c), ref.Events(c))
	}
	sameRecords(t, label+" links", ts.Links(), byParent(ref.Links()))
	if got, want := logdb.ComputeStats(ts), logdb.ComputeStats(ref); got != want {
		t.Fatalf("%s: ComputeStats\n got  %+v\n want %+v", label, got, want)
	}
	rangeOf := func(src logdb.Records) []probe.Record {
		var out []probe.Record
		pred := func(u uuid.UUID) bool { return uuid.Hash64(u)%3 != 0 }
		links := 0
		if err := logdb.RangeRecords(src, pred, func(r probe.Record) error {
			if r.Kind == probe.KindLink {
				links++
			}
			out = append(out, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		byParent(out[:links])
		return out
	}
	sameRecords(t, label+" RangeRecords", rangeOf(ts), rangeOf(ref))
	dscg := func(src analysis.Source) string {
		g := analysis.ReconstructFrom(src)
		g.ComputeLatency()
		return render.DSCGString(g)
	}
	if got, want := dscg(ts), dscg(ref); got != want || got == "" {
		t.Fatalf("%s: DSCG differs (%d bytes, want %d)", label, len(got), len(want))
	}
	if w := ts.Warnings(); len(w) != 0 {
		t.Fatalf("%s: warnings %v", label, w)
	}
}

// byParent sorts links the way tracestore's Links does; logdb keeps them
// in insertion order.
func byParent(links []probe.Record) []probe.Record {
	sort.SliceStable(links, func(i, j int) bool {
		if c := uuid.Compare(links[i].LinkParent, links[j].LinkParent); c != 0 {
			return c < 0
		}
		return links[i].LinkParentSeq < links[j].LinkParentSeq
	})
	return links
}

// readRuns pins the layout: each Events call must read its chain in exactly
// as many ReadAts as the chain's frames make contiguous runs on disk. It
// returns the runs and the records read over all chains.
func readRuns(t *testing.T, label string, ts *Store) (runs, recs int) {
	t.Helper()
	for _, sh := range ts.shards {
		sh.mu.Lock()
		want := make(map[uuid.UUID]int, len(sh.chains))
		for c, ci := range sh.chains {
			locs := slices.Clone(ci.locs)
			slices.SortFunc(locs, func(a, b recLoc) int {
				if a.seg != b.seg {
					return int(a.seg - b.seg)
				}
				return int(a.off - b.off)
			})
			// The chain's distinct frames, then the breaks between them.
			locs = slices.CompactFunc(locs, func(a, b recLoc) bool { return a.seg == b.seg && a.off == b.off })
			n := 1
			for i := 1; i < len(locs); i++ {
				if locs[i].seg != locs[i-1].seg || locs[i].off != locs[i-1].off+int64(locs[i-1].size)+frameHeader {
					n++
				}
			}
			want[c] = n
		}
		sh.mu.Unlock()
		for c, n := range want {
			sh.mu.Lock()
			sh.reads = 0
			sh.mu.Unlock()
			got := len(ts.Events(c))
			sh.mu.Lock()
			reads := sh.reads
			sh.mu.Unlock()
			if reads != n {
				t.Fatalf("%s: chain %s read in %d ReadAts, it lies in %d runs", label, c.Short(), reads, n)
			}
			runs += n
			recs += got
		}
	}
	return runs, recs
}

// The chain-contiguous layout and the run-reading path change nothing a
// reader can see: before and after reopen, and after a sweep compacts, every
// query agrees with logdb fed the same batches, and each chain costs one
// read per contiguous run of its frames. A closed store's segments are
// record streams: logdb loads them with no tracestore code and agrees too.
func TestChainContiguousLayoutMatchesLogdb(t *testing.T) {
	batches, swept := layoutBatches()
	dir := t.TempDir()
	ts, err := Open(dir, Options{Shards: 4, SegmentMaxBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ts.Close() }()
	ref := logdb.NewStore()
	if got, want := feed(ts, batches, nil), feed(ref, batches, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("InsertNew accepted %v, logdb %v", got, want)
	}

	long := chainID(8)
	sh := ts.shards[ts.shardIndex(long)]
	segs := map[int32]bool{}
	for _, l := range sh.chains[long].locs {
		segs[l.seg] = true
	}
	if len(segs) < 2 {
		t.Fatalf("the long chain lies in %d segments; the test needs it to span a rotation", len(segs))
	}

	sameAsLogdb(t, "live", ts, ref)
	runs, recs := readRuns(t, "live", ts)
	if runs*3 > recs {
		t.Fatalf("live: %d records in %d runs; a chain's records are not grouped", recs, runs)
	}

	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	segments := logdb.NewStore()
	if n, warn, err := segments.LoadGlob(filepath.Join(dir, "shard-*", "*.seg")); err != nil || warn != 0 || n != ref.Len() {
		t.Fatalf("logdb loaded %d records of the closed store's %d, %d warnings, %v", n, ref.Len(), warn, err)
	}
	if ts, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	sameAsLogdb(t, "reopened", ts, ref)
	sameAsLogdb(t, "segments", ts, segments)
	if r, _ := readRuns(t, "reopened", ts); r != runs {
		t.Fatalf("reopened: %d runs, %d before", r, runs)
	}

	n, err := ts.Sweep(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(swept) {
		t.Fatalf("Sweep dropped %d chains, want %d", n, len(swept))
	}
	kept := logdb.NewStore()
	feed(kept, batches, func(r *probe.Record) bool { return !swept[routeKey(r)] })
	sameAsLogdb(t, "swept", ts, kept)
	// Compaction rewrites each survivor whole: one run a chain.
	if runs, _ := readRuns(t, "swept", ts); runs != len(ts.Chains()) {
		t.Fatalf("swept: %d runs over %d chains", runs, len(ts.Chains()))
	}
}

// chainView is what a shard's index holds for one chain.
type chainView struct {
	locs  []recLoc
	dirty bool
	last  time.Time
}

// indexView copies every shard's index: each chain's entry, and the event
// count.
func indexView(s *Store) (chains map[uuid.UUID]chainView, events int) {
	chains = make(map[uuid.UUID]chainView)
	for _, sh := range s.shards {
		sh.mu.Lock()
		for c, ci := range sh.chains {
			chains[c] = chainView{slices.Clone(ci.locs), ci.dirty, ci.last}
		}
		events += sh.events
		sh.mu.Unlock()
	}
	return chains, events
}

// The index a store builds as it writes is the index recovery builds from
// the segments it wrote: for every chain the same locations in the same
// order and the same dirty flag, the same event count, and — for a chain
// whose records carry wall times, where the touch is not the clock at
// indexing — the same newest touch. The writes are mixed batches (ties,
// out-of-sequence halves, links, an InsertNew replay) and one-chain inserts
// as the chain table makes them: whole chains, chunks in sequence and out
// of it, a chain without wall times, across segment rotations.
func TestWriteIndexMatchesRecoveredIndex(t *testing.T) {
	dir := t.TempDir()
	ts, err := Open(dir, Options{Shards: 4, SegmentMaxBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	batches, _ := layoutBatches()
	feed(ts, batches, nil)
	wall := time.Now().Round(0)
	noWall := chainID(160)
	for k := 0; k < 6; k++ {
		c := chainID(byte(150 + k))
		recs := nestedChain(c, 1+3*k, "ISingle", wall)
		switch k {
		case 0, 1:
			ts.Insert(recs...)
		case 2:
			for i := 0; i < len(recs); i += 4 {
				ts.Insert(recs[i:min(i+4, len(recs))]...)
			}
		case 3:
			mid := len(recs) / 2
			ts.Insert(recs[mid:]...)
			ts.Insert(recs[:mid]...)
		case 4:
			ts.Insert(recs[:3]...)
			ts.Insert(append(recs[3:5:5], link(c, recs[4].Seq, chainID(170)))...)
			ts.Insert(recs[5:]...)
		case 5:
			recs = nestedChain(noWall, 3, "INoWall", time.Time{})
			ts.Insert(recs[:7]...)
			ts.Insert(recs[7:]...)
		}
	}
	written, events := indexView(ts)
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	if ts, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	recovered, recEvents := indexView(ts)
	if events != recEvents || len(written) != len(recovered) {
		t.Fatalf("written index: %d events in %d chains; recovered: %d in %d", events, len(written), recEvents, len(recovered))
	}
	dirty := 0
	for c, w := range written {
		r, ok := recovered[c]
		switch {
		case !ok:
			t.Fatalf("chain %s not recovered", c)
		case !slices.Equal(w.locs, r.locs):
			t.Fatalf("chain %s: written locations %v, recovered %v", c, w.locs, r.locs)
		case w.dirty != r.dirty:
			t.Fatalf("chain %s: written dirty=%v, recovered %v", c, w.dirty, r.dirty)
		case c != noWall && !w.last.Equal(r.last):
			t.Fatalf("chain %s: written last touch %v, recovered %v", c, w.last, r.last)
		}
		if w.dirty {
			dirty++
		}
	}
	if dirty == 0 {
		t.Fatal("no chain is out of seq order; the test needs one")
	}
}

func TestRecLocSize(t *testing.T) {
	if got := unsafe.Sizeof(recLoc{}); got != 24 {
		t.Fatalf("recLoc is %d bytes, want 24", got)
	}
}
