package tracestore

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"causeway/internal/analysis"
	"causeway/internal/ftl"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/render"
	"causeway/internal/uuid"
	"causeway/internal/workload"
)

func chainID(b byte) uuid.UUID {
	var c uuid.UUID
	c[0] = b
	c[15] = 0x42
	return c
}

func ev(chain uuid.UUID, seq uint64, e ftl.Event, iface string, wall time.Time) probe.Record {
	r := probe.Record{
		Kind:    probe.KindEvent,
		Process: "proc00",
		Thread:  7,
		Chain:   chain,
		Event:   e,
		Seq:     seq,
	}
	r.Op.Component = "comp"
	r.Op.Interface = iface
	r.Op.Operation = "op"
	if !wall.IsZero() {
		r.LatencyArmed = true
		r.WallStart = wall
		r.WallEnd = wall.Add(time.Millisecond)
	}
	return r
}

func link(parent uuid.UUID, seq uint64, child uuid.UUID) probe.Record {
	return probe.Record{
		Kind:          probe.KindLink,
		LinkParent:    parent,
		LinkParentSeq: seq,
		LinkChild:     child,
	}
}

// sameRecord compares records field-wise, using time.Equal for the wall
// fields: the frame codec stores wall nanoseconds, so the monotonic
// reading time.Now attaches is (deliberately) not round-tripped.
func sameRecord(a, b probe.Record) bool {
	if !a.WallStart.Equal(b.WallStart) || !a.WallEnd.Equal(b.WallEnd) {
		return false
	}
	a.WallStart, a.WallEnd = time.Time{}, time.Time{}
	b.WallStart, b.WallEnd = time.Time{}, time.Time{}
	return reflect.DeepEqual(a, b)
}

func sameRecords(t *testing.T, label string, got, want []probe.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d records, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !sameRecord(got[i], want[i]) {
			t.Fatalf("%s: record %d mismatch\n got  %+v\n want %+v", label, i, got[i], want[i])
		}
	}
}

// TestStoreMatchesLogdb drives a full synthetic workload into both stores
// and checks every reconstruction query agrees.
func TestStoreMatchesLogdb(t *testing.T) {
	sys, err := workload.Generate(workload.Config{
		Processes: 3, Threads: 4, Components: 6, Interfaces: 5, Methods: 12,
		Calls: 400, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := sys.Store()

	ts, err := Open(t.TempDir(), Options{Shards: 8, SegmentMaxBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	for _, sink := range sys.Sinks {
		ts.Insert(sink.Snapshot()...)
	}

	if got, want := ts.Len(), ref.Len(); got != want {
		t.Fatalf("Len: got %d want %d", got, want)
	}
	chains := ts.Chains()
	if want := ref.Chains(); !reflect.DeepEqual(chains, want) {
		t.Fatalf("Chains: got %d want %d chains", len(chains), len(want))
	}
	for _, c := range chains {
		sameRecords(t, "events "+c.String(), ts.Events(c), ref.Events(c))
	}
	for _, l := range ref.Links() {
		child, ok := ts.ChildChain(l.LinkParent, l.LinkParentSeq)
		if !ok || child != l.LinkChild {
			t.Fatalf("ChildChain(%s,%d): got %s,%v want %s", l.LinkParent, l.LinkParentSeq, child, ok, l.LinkChild)
		}
	}
	if got, want := len(ts.Links()), len(ref.Links()); got != want {
		t.Fatalf("Links: got %d want %d", got, want)
	}
	if got, want := logdb.ComputeStats(ts), logdb.ComputeStats(ref); got != want {
		t.Fatalf("ComputeStats:\n got  %+v\n want %+v", got, want)
	}
	if w := ts.Warnings(); len(w) != 0 {
		t.Fatalf("unexpected warnings: %v", w)
	}
}

// TestReopen closes a populated store and reopens it from disk.
func TestReopen(t *testing.T) {
	dir := t.TempDir()
	wall := time.Now()
	c1, c2 := chainID(1), chainID(2)
	recs := []probe.Record{
		ev(c1, 1, ftl.StubStart, "IJob", wall),
		ev(c1, 2, ftl.SkelStart, "IJob", wall),
		link(c1, 2, c2),
		ev(c2, 1, ftl.SkelStart, "ISpool", wall),
		ev(c2, 2, ftl.SkelEnd, "ISpool", wall),
		ev(c1, 3, ftl.SkelEnd, "IJob", wall),
		ev(c1, 4, ftl.StubEnd, "IJob", wall),
	}

	ts, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts.Insert(recs...)
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopening with a different Shards option must respect the manifest.
	ts2, err := Open(dir, Options{Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer ts2.Close()
	if got := len(ts2.shards); got != 2 {
		t.Fatalf("reopen shards: got %d want 2 (manifest)", got)
	}
	if got := ts2.Len(); got != len(recs) {
		t.Fatalf("reopen Len: got %d want %d", got, len(recs))
	}
	sameRecords(t, "c1", ts2.Events(c1), []probe.Record{recs[0], recs[1], recs[5], recs[6]})
	sameRecords(t, "c2", ts2.Events(c2), []probe.Record{recs[3], recs[4]})
	if child, ok := ts2.ChildChain(c1, 2); !ok || child != c2 {
		t.Fatalf("reopen ChildChain: got %s,%v", child, ok)
	}
	if w := ts2.Warnings(); len(w) != 0 {
		t.Fatalf("clean reopen warned: %v", w)
	}

	// Appends after reopen land after the recovered tail.
	ts2.Insert(ev(c2, 3, ftl.SkelStart, "ISpool", wall))
	if got := len(ts2.Events(c2)); got != 3 {
		t.Fatalf("append after reopen: got %d events", got)
	}
}

// The store reopens whatever it accepted: a record with a 17 MiB Semantics —
// within the transport's 64 MiB frame, past what segments once capped a
// payload at — survives Close and Open beside a normal one. A record whose
// frame alone would pass probe.MaxFrameBytes could not be read back, so it
// is dropped and counted, never written.
func TestStoreReopensWhatItAccepted(t *testing.T) {
	dir := t.TempDir()
	ts, err := Open(dir, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Unix(1700000000, 0)
	c, big := chainID(1), chainID(2)
	recs := []probe.Record{ev(c, 1, ftl.StubStart, "IJob", wall), ev(big, 1, ftl.StubStart, "IJob", wall)}
	recs[1].Semantics = strings.Repeat("s", 17<<20)
	ts.Insert(recs...)
	huge := ev(chainID(3), 1, ftl.StubStart, "IJob", wall)
	huge.Semantics = strings.Repeat("h", probe.MaxFrameBytes)
	ts.Insert(huge)
	if ts.Dropped() != 1 || ts.Len() != 2 {
		t.Fatalf("after inserting a record too large for a frame: Dropped %d, Len %d; want 1 and 2", ts.Dropped(), ts.Len())
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	if ts, err = Open(dir, Options{}); err != nil {
		t.Fatalf("reopening a store holding a 17 MiB record: %v", err)
	}
	defer ts.Close()
	sameRecords(t, "normal", ts.Events(c), recs[:1])
	sameRecords(t, "17 MiB", ts.Events(big), recs[1:])
	if n := len(ts.Chains()); n != 2 {
		t.Fatalf("reopened store holds %d chains, want 2", n)
	}
}

// TestRotation forces many small segments and checks reads span them.
func TestRotation(t *testing.T) {
	dir := t.TempDir()
	ts, err := Open(dir, Options{Shards: 1, SegmentMaxBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	c := chainID(9)
	const n = 50
	for i := 1; i <= n; i++ {
		e := ftl.StubStart
		if i%2 == 0 {
			e = ftl.StubEnd
		}
		ts.Insert(ev(c, uint64(i), e, "IRot", time.Time{}))
	}
	segs, err := ts.shards[0].listSegments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("rotation: only %d segments", len(segs))
	}
	got := ts.Events(c)
	if len(got) != n {
		t.Fatalf("rotation read: got %d events want %d", len(got), n)
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("rotation order: event %d has seq %d", i, r.Seq)
		}
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	ts2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts2.Close()
	if got := len(ts2.Events(c)); got != n {
		t.Fatalf("rotation reopen: got %d events", got)
	}
}

// TestRecoverEveryTruncation is the crash-tolerance property test: a
// segment cut at EVERY byte offset must reopen without panicking, recover
// exactly the records whose frames fit before the cut, and warn when the
// cut tore a frame.
func TestRecoverEveryTruncation(t *testing.T) {
	// Build a reference single-shard store whose one chain lives in one
	// segment, so the on-disk prefix order equals insertion order.
	master := t.TempDir()
	ts, err := Open(master, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, child := chainID(3), chainID(4)
	wall := time.Unix(1700000000, 12345)
	recs := []probe.Record{
		ev(c, 1, ftl.StubStart, "IJobSubmitter", wall),
		ev(c, 2, ftl.SkelStart, "IJobSubmitter", wall),
		link(c, 2, child),
		ev(c, 3, ftl.SkelEnd, "IJobSubmitter", wall),
		ev(c, 4, ftl.StubEnd, "IJobSubmitter", wall),
	}
	// Each Insert is one frame: a lone event, two events with the link
	// between them, a lone event. frameEnds[i] is the file size at which
	// the first i+1 frames are readable.
	frames := [][]probe.Record{recs[:1], recs[1:4], recs[4:]}
	var frameEnds []int64
	for _, f := range frames {
		ts.Insert(f...)
		frameEnds = append(frameEnds, ts.shards[0].active.size)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(master, "shard-000", segName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != frameEnds[len(frameEnds)-1] {
		t.Fatalf("segment holds %d bytes, the writer counted %d", len(full), frameEnds[len(frameEnds)-1])
	}

	manifest, err := os.ReadFile(filepath.Join(master, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dir, "shard-000"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "shard-000", segName(0)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		// A cut exactly at a frame boundary, at the bare header or before
		// anything (an empty stream) leaves a clean file; anything else
		// tears a frame and must warn.
		wantComplete, atBoundary := 0, cut == 0 || cut == int(segHeader)
		for i, e := range frameEnds {
			if int64(cut) >= e {
				wantComplete += len(frames[i])
			}
			atBoundary = atBoundary || int64(cut) == e
		}
		if got := re.Len(); got != wantComplete {
			re.Close()
			t.Fatalf("cut %d: recovered %d records, want %d", cut, got, wantComplete)
		}
		if warns := re.Warnings(); atBoundary && len(warns) != 0 {
			re.Close()
			t.Fatalf("cut %d: clean boundary warned: %v", cut, warns)
		} else if !atBoundary && len(warns) == 0 {
			re.Close()
			t.Fatalf("cut %d: torn tail produced no warning", cut)
		}
		// The recovered records must be exactly the insertion prefix.
		var got []probe.Record
		got = append(got, re.Links()...)
		for _, ch := range re.Chains() {
			got = append(got, re.Events(ch)...)
		}
		want := make([]probe.Record, 0, wantComplete)
		for _, r := range recs[:wantComplete] {
			if r.Kind == probe.KindLink {
				want = append(want, r)
			}
		}
		for _, r := range recs[:wantComplete] {
			if r.Kind == probe.KindEvent {
				want = append(want, r)
			}
		}
		sameRecords(t, "recovered", got, want)
		// The truncated store must accept appends and survive reopen.
		re.Insert(ev(chainID(5), 1, ftl.StubStart, "IAfter", wall))
		if err := re.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		re2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if got := re2.Len(); got != wantComplete+1 {
			t.Fatalf("cut %d: after append reopen Len=%d want %d", cut, got, wantComplete+1)
		}
		if len(re2.Warnings()) != 0 {
			t.Fatalf("cut %d: second reopen warned: %v", cut, re2.Warnings())
		}
		re2.Close()
	}
}

// TestSweep checks retention: only complete, old chains are dropped;
// compaction preserves survivors across reopen and deletes old segments.
func TestSweep(t *testing.T) {
	dir := t.TempDir()
	ts, err := Open(dir, Options{Shards: 1, SegmentMaxBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * time.Hour)
	fresh := time.Now()
	oldDone, oldOpen, freshDone := chainID(10), chainID(11), chainID(12)
	oldChild := chainID(13)
	ts.Insert(
		// Complete old chain (sweepable), with a link to an old complete child.
		ev(oldDone, 1, ftl.StubStart, "IOld", old),
		ev(oldDone, 2, ftl.SkelStart, "IOld", old),
		link(oldDone, 2, oldChild),
		ev(oldDone, 3, ftl.SkelEnd, "IOld", old),
		ev(oldDone, 4, ftl.StubEnd, "IOld", old),
		ev(oldChild, 1, ftl.SkelStart, "IOldChild", old),
		ev(oldChild, 2, ftl.SkelEnd, "IOldChild", old),
		// Old but incomplete (crashed mid-call): must survive.
		ev(oldOpen, 1, ftl.StubStart, "IStuck", old),
		ev(oldOpen, 2, ftl.SkelStart, "IStuck", old),
		// Fresh and complete: must survive the age filter.
		ev(freshDone, 1, ftl.StubStart, "IFresh", fresh),
		ev(freshDone, 2, ftl.StubEnd, "IFresh", fresh),
	)
	dropped, err := ts.Sweep(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 2 {
		t.Fatalf("Sweep dropped %d chains, want 2", dropped)
	}
	chains := ts.Chains()
	if len(chains) != 2 {
		t.Fatalf("after sweep: %d chains remain, want 2: %v", len(chains), chains)
	}
	if len(ts.Events(oldDone)) != 0 || len(ts.Events(oldChild)) != 0 {
		t.Fatal("swept chain still has events")
	}
	if _, ok := ts.ChildChain(oldDone, 2); ok {
		t.Fatal("swept chain's link survived")
	}
	if got := len(ts.Events(oldOpen)); got != 2 {
		t.Fatalf("incomplete chain lost events: %d", got)
	}
	if got := len(ts.Events(freshDone)); got != 2 {
		t.Fatalf("fresh chain lost events: %d", got)
	}

	// The store stays writable after compaction and survives reopen.
	ts.Insert(ev(oldOpen, 3, ftl.SkelEnd, "IStuck", fresh))
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	ts2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts2.Close()
	if got := len(ts2.Chains()); got != 2 {
		t.Fatalf("reopen after sweep: %d chains", got)
	}
	if got := len(ts2.Events(oldOpen)); got != 3 {
		t.Fatalf("reopen after sweep: oldOpen has %d events want 3", got)
	}
	if len(ts2.Warnings()) != 0 {
		t.Fatalf("reopen after sweep warned: %v", ts2.Warnings())
	}

	// A second sweep with nothing old drops nothing.
	if n, err := ts2.Sweep(time.Hour); err != nil || n != 0 {
		t.Fatalf("idle sweep: dropped %d err %v", n, err)
	}
}

// The sweep's notion of a finished chain is the analyzer's: a clean
// Figure-4 parse. A retried call renumbers its probes at the ORB's seq
// stride, so a gap is no sign of damage; balanced, contiguous events whose
// operations do not pair up are.
func TestSweepJudgesChainsAsTheAnalyzerDoes(t *testing.T) {
	ts, err := Open(t.TempDir(), Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	old := time.Now().Add(-2 * time.Hour)
	retried, mispaired := chainID(20), chainID(21)
	ts.Insert(
		ev(retried, 1, ftl.StubStart, "IRetried", old),
		ev(retried, 4098, ftl.SkelStart, "IRetried", old),
		ev(retried, 4099, ftl.SkelEnd, "IRetried", old),
		ev(retried, 4100, ftl.StubEnd, "IRetried", old),
		ev(mispaired, 1, ftl.StubStart, "IOne", old),
		ev(mispaired, 2, ftl.SkelStart, "IOther", old),
		ev(mispaired, 3, ftl.SkelEnd, "IOther", old),
		ev(mispaired, 4, ftl.StubEnd, "IOne", old),
	)
	dropped, err := ts.Sweep(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 || len(ts.Events(retried)) != 0 {
		t.Fatalf("Sweep dropped %d chains and left %d events of the retried call; want it swept, gap and all",
			dropped, len(ts.Events(retried)))
	}
	if got := len(ts.Events(mispaired)); got != 4 {
		t.Fatalf("anomalous chain has %d events after the sweep, want all 4 kept for the analyzer", got)
	}
}

// TestExportRoundTrip is the `causectl export` / /exportz / -out path on both
// backends: a Figure-5-shaped run (oneway links included), inserted shuffled,
// written as a record stream and loaded into a fresh logdb, renders the
// byte-identical DSCG and computes equal statistics.
func TestExportRoundTrip(t *testing.T) {
	sys, err := workload.Generate(workload.Config{
		Processes: 3, Threads: 4, Components: 8, Interfaces: 6, Methods: 15,
		Calls: 600, OnewayPermille: 100, Seed: 3, Aspects: probe.AspectLatency,
	})
	if err != nil {
		t.Fatal(err)
	}
	var recs []probe.Record
	for _, sink := range sys.Sinks {
		recs = append(recs, sink.Snapshot()...)
	}
	rand.New(rand.NewSource(11)).Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	for i := range recs {
		// No byte form carries a time's monotonic reading; drop it up front so
		// the memory backend measures the wall windows the stream will hold.
		recs[i].WallStart, recs[i].WallEnd = recs[i].WallStart.Round(0), recs[i].WallEnd.Round(0)
	}
	dscg := func(src analysis.Source) string {
		g := analysis.ReconstructFrom(src)
		g.ComputeLatency()
		return render.DSCGString(g)
	}
	for _, b := range replayBackends {
		t.Run(b.name, func(t *testing.T) {
			src, closeSrc := b.open(t, t.TempDir(), 4)
			defer closeSrc()
			src.Insert(recs...)
			if len(src.Links()) == 0 {
				t.Fatal("workload recorded no oneway link")
			}
			var buf bytes.Buffer
			if err := logdb.WriteRecords(src, &buf); err != nil {
				t.Fatal(err)
			}
			db := logdb.NewStore()
			if n, warn, err := db.Load(&buf); err != nil || warn != 0 || n != len(recs) || db.Len() != src.Len() {
				t.Fatalf("loaded %d of %d records (store %d), %d warnings, %v", n, len(recs), db.Len(), warn, err)
			}
			if got, want := dscg(db), dscg(src); got != want || got == "" {
				t.Fatalf("DSCG changes across the export: %d bytes, want %d", len(got), len(want))
			}
			if got, want := logdb.ComputeStats(db), logdb.ComputeStats(src); got != want {
				t.Fatalf("ComputeStats:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}

// TestConcurrentInsertAndQuery hammers the store from writer and reader
// goroutines at once — the workload the collectd daemon actually applies
// (connection goroutines insert while the reporter sweeps and queries).
// Run under -race in CI.
func TestConcurrentInsertAndQuery(t *testing.T) {
	ts, err := Open(t.TempDir(), Options{Shards: 4, SegmentMaxBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	const writers, chainsPer = 4, 25
	var wg sync.WaitGroup
	stopReaders := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				for _, c := range ts.Chains() {
					ts.Events(c)
				}
				ts.Len()
				ts.Links()
				if _, err := ts.Sweep(time.Hour); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var ww sync.WaitGroup
	base := time.Now()
	for wtr := 0; wtr < writers; wtr++ {
		ww.Add(1)
		go func(wtr int) {
			defer ww.Done()
			for i := 0; i < chainsPer; i++ {
				c := chainID(byte(wtr*chainsPer + i + 1))
				ts.Insert(
					ev(c, 1, ftl.StubStart, "Iface", base),
					ev(c, 2, ftl.SkelStart, "Iface", base),
					ev(c, 3, ftl.SkelEnd, "Iface", base),
					ev(c, 4, ftl.StubEnd, "Iface", base),
				)
			}
		}(wtr)
	}
	ww.Wait()
	close(stopReaders)
	wg.Wait()

	if ts.Dropped() != 0 {
		t.Fatalf("store dropped %d records", ts.Dropped())
	}
	if got, want := ts.Len(), writers*chainsPer*4; got != want {
		t.Fatalf("store holds %d records, want %d", got, want)
	}
	if got := len(ts.Chains()); got != writers*chainsPer {
		t.Fatalf("store holds %d chains, want %d", got, writers*chainsPer)
	}
	for _, c := range ts.Chains() {
		if evs := ts.Events(c); len(evs) != 4 {
			t.Fatalf("chain %s has %d events, want 4", c, len(evs))
		}
	}
}

// TestSweepConcurrentIngestLedger races retention sweeps against live
// ingest and checks the store-side ledger closes: every record ever
// inserted is indexed, swept, or dropped. A batch arriving while a
// compaction runs must block on the shard lock, never vanish silently.
func TestSweepConcurrentIngestLedger(t *testing.T) {
	ts, err := Open(t.TempDir(), Options{Shards: 2, SegmentMaxBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	// Old wall times make every complete chain immediately sweepable.
	old := time.Now().Add(-time.Hour)
	const chains, recsPerChain = 80, 4
	inserted := make(chan struct{})
	go func() {
		defer close(inserted)
		for i := 0; i < chains; i++ {
			c := chainID(byte(i + 1))
			ts.Insert(
				ev(c, 1, ftl.StubStart, "ISwept", old),
				ev(c, 2, ftl.SkelStart, "ISwept", old),
				ev(c, 3, ftl.SkelEnd, "ISwept", old),
				ev(c, 4, ftl.StubEnd, "ISwept", old),
			)
		}
	}()
	var sweepErr error
	sweeps := 0
	swept := make(chan struct{})
	go func() {
		defer close(swept)
		for {
			select {
			case <-inserted:
				return
			default:
			}
			if _, err := ts.Sweep(time.Minute); err != nil {
				sweepErr = err
				return
			}
			sweeps++
		}
	}()
	<-inserted
	<-swept
	if sweepErr != nil {
		t.Fatal(sweepErr)
	}
	// One quiescent sweep clears the stragglers the racing sweeper missed.
	if _, err := ts.Sweep(time.Minute); err != nil {
		t.Fatal(err)
	}

	total := chains * recsPerChain
	if got := ts.Len() + ts.Swept() + ts.Dropped(); got != total {
		t.Fatalf("ledger leak: Len %d + Swept %d + Dropped %d = %d, want %d (after %d racing sweeps)",
			ts.Len(), ts.Swept(), ts.Dropped(), got, total, sweeps)
	}
	if ts.Dropped() != 0 {
		t.Fatalf("store dropped %d records", ts.Dropped())
	}
	if ts.Len() != 0 {
		t.Fatalf("final sweep left %d records indexed", ts.Len())
	}
	if ts.Swept() != total {
		t.Fatalf("swept ledger reads %d, want %d", ts.Swept(), total)
	}
}

// A batch of one chain — what the streaming assembler hands over at every
// eviction — goes to its shard as it is: nothing is regrouped or copied, so
// once the chain's index has room an Insert allocates nothing at all.
func TestStoreInsertSingleChainAllocFree(t *testing.T) {
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
	s.Insert(recs...)
	// Give the index its growth up front; the ceiling is about the path.
	sh := s.shards[s.shardIndex(c)]
	sh.mu.Lock()
	ci := sh.chains[c]
	ci.locs = append(make([]recLoc, 0, (runs+3)*batch), ci.locs...)
	sh.mu.Unlock()
	if a := testing.AllocsPerRun(runs, func() { s.Insert(recs...) }); a != 0 {
		t.Errorf("a one-chain Insert of %d records allocates %v, want 0", batch, a)
	}
	if got := len(s.Events(c)); got != (runs+2)*batch {
		t.Fatalf("chain holds %d events after the runs, want %d", got, (runs+2)*batch)
	}
}

// A mixed batch — the persist queue's links and stragglers, a replay, a
// journal replayed at start — is routed and grouped by chain with recycled
// scratch: once the indexes have room, an Insert allocates nothing either.
func TestStoreInsertMixedBatchAllocFree(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const chains, perChain, runs = 12, 8, 50
	wall := time.Date(2026, 9, 26, 12, 0, 0, 0, time.UTC)
	var recs []probe.Record
	for seq := uint64(1); seq <= perChain; seq++ {
		for c := byte(1); c <= chains; c++ {
			recs = append(recs, ev(chainID(c), seq, ftl.StubStart, "I", wall))
			if seq == 2 {
				recs = append(recs, link(chainID(c), seq, chainID(c+100)))
			}
		}
	}
	s.Insert(recs...)
	used := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		used += min(1, len(sh.chains))
		for _, ci := range sh.chains {
			ci.locs = append(make([]recLoc, 0, (runs+3)*perChain), ci.locs...)
		}
		sh.links = append(make([]probe.Record, 0, (runs+3)*len(sh.links)), sh.links...)
		sh.mu.Unlock()
	}
	if used < 2 {
		t.Fatalf("the batch landed in %d shard(s); the test needs a mixed one", used)
	}
	if a := testing.AllocsPerRun(runs, func() { s.Insert(recs...) }); a != 0 {
		t.Errorf("a mixed Insert of %d records over %d chains allocates %v, want 0", len(recs), chains, a)
	}
	for c := byte(1); c <= chains; c++ {
		if got := len(s.Events(chainID(c))); got != (runs+2)*perChain {
			t.Fatalf("chain %d holds %d events after the runs, want %d", c, got, (runs+2)*perChain)
		}
	}
}
