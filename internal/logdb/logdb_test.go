package logdb

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"causeway/internal/ftl"
	"causeway/internal/probe"
	"causeway/internal/uuid"
)

func ev(chain uuid.UUID, seq uint64, e ftl.Event, op string) probe.Record {
	return probe.Record{
		Kind:    probe.KindEvent,
		Process: "p1",
		Chain:   chain,
		Seq:     seq,
		Event:   e,
		Op:      probe.OpID{Component: "c", Interface: "I", Operation: op, Object: "o"},
	}
}

func link(parent uuid.UUID, seq uint64, child uuid.UUID) probe.Record {
	return probe.Record{Kind: probe.KindLink, LinkParent: parent, LinkParentSeq: seq, LinkChild: child}
}

func TestChainsAndEventsSorted(t *testing.T) {
	s := NewStore()
	g := &uuid.SequentialGenerator{Seed: 1}
	c1, c2 := g.NewUUID(), g.NewUUID()
	// Insert out of order to prove the query sorts by seq.
	s.Insert(
		ev(c2, 2, ftl.SkelStart, "G"),
		ev(c1, 4, ftl.StubEnd, "F"),
		ev(c1, 1, ftl.StubStart, "F"),
		ev(c2, 1, ftl.StubStart, "G"),
		ev(c1, 3, ftl.SkelEnd, "F"),
		ev(c1, 2, ftl.SkelStart, "F"),
	)
	chains := s.Chains()
	if len(chains) != 2 {
		t.Fatalf("Chains = %v", chains)
	}
	if uuid.Compare(chains[0], chains[1]) >= 0 {
		t.Fatal("Chains not sorted")
	}
	evs := s.Events(c1)
	if len(evs) != 4 {
		t.Fatalf("Events(c1) len = %d", len(evs))
	}
	for i, r := range evs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("event %d seq = %d", i, r.Seq)
		}
	}
	if got := s.Events(uuid.New()); len(got) != 0 {
		t.Fatal("Events for unknown chain non-empty")
	}
}

func TestChildChainLookup(t *testing.T) {
	s := NewStore()
	p, c := uuid.New(), uuid.New()
	s.Insert(link(p, 5, c))
	got, ok := s.ChildChain(p, 5)
	if !ok || got != c {
		t.Fatalf("ChildChain = %v, %v", got, ok)
	}
	if _, ok := s.ChildChain(p, 6); ok {
		t.Fatal("found link at wrong seq")
	}
	if len(s.Links()) != 1 {
		t.Fatal("Links() wrong length")
	}
}

func TestComputeStats(t *testing.T) {
	s := NewStore()
	c1, c2 := uuid.New(), uuid.New()
	s.Insert(
		ev(c1, 1, ftl.StubStart, "F"),
		ev(c1, 2, ftl.SkelStart, "F"),
		ev(c1, 3, ftl.SkelEnd, "F"),
		ev(c1, 4, ftl.StubEnd, "F"),
		ev(c2, 1, ftl.StubStart, "G"),
		ev(c2, 2, ftl.StubEnd, "G"),
		link(c2, 1, uuid.New()),
	)
	st := ComputeStats(s)
	if st.Chains != 2 || st.Calls != 2 || st.Methods != 2 || st.Interfaces != 1 ||
		st.Components != 1 || st.Records != 6 || st.Links != 1 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestWriteRecordsLoadRoundTrip(t *testing.T) {
	s := NewStore()
	c := uuid.New()
	s.Insert(
		ev(c, 1, ftl.StubStart, "F"),
		ev(c, 2, ftl.SkelStart, "F"),
		link(c, 1, uuid.New()),
	)
	var buf bytes.Buffer
	if err := WriteRecords(s, &buf); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	if n, warn, err := s2.Load(&buf); err != nil || warn != 0 || n != s.Len() || s2.Len() != s.Len() {
		t.Fatalf("round trip: %d of %d records, %d warnings, %v", n, s.Len(), warn, err)
	}
	if got, want := ComputeStats(s2), ComputeStats(s); got != want {
		t.Fatalf("stats across the round trip:\n got  %+v\n want %+v", got, want)
	}
}

// An export is cut into shipper-sized frames, so a reader never holds more
// than one of them.
func TestWriteRecordsFramesExport(t *testing.T) {
	s := NewStore()
	c := uuid.New()
	const n = 2*exportFrame + 10
	for i := 1; i <= n; i++ {
		s.Insert(ev(c, uint64(i), ftl.StubStart, "F"))
	}
	var buf bytes.Buffer
	if err := WriteRecords(s, &buf); err != nil {
		t.Fatal(err)
	}
	var frames []int
	if err := probe.ReadFrames(&buf, func(recs []probe.Record) { frames = append(frames, len(recs)) }); err != nil {
		t.Fatal(err)
	}
	if len(frames) != 3 || frames[0] != exportFrame || frames[1] != exportFrame || frames[2] != 10 {
		t.Fatalf("export of %d records framed as %v", n, frames)
	}
}

// stream is what a process appending recs one at a time leaves on disk: one
// frame per record.
func stream(t *testing.T, recs ...probe.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	ss := probe.NewStreamSink(&buf)
	for _, r := range recs {
		ss.Append(r)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The one offline loader: files merge in sorted order, a torn tail costs its
// file the torn frame and counts one warning per file while the merge goes
// on, and a hard error aborts the merge and names the file.
func TestLoadGlob(t *testing.T) {
	c := uuid.UUID{0: 1}
	p1 := stream(t, ev(c, 1, ftl.StubStart, "F"), ev(c, 2, ftl.SkelStart, "F"), ev(c, 3, ftl.SkelEnd, "F"))
	p2 := stream(t, ev(c, 4, ftl.StubEnd, "F"), link(c, 1, uuid.UUID{0: 2}))
	cases := []struct {
		name           string
		files          map[string][]byte
		records, warns int
		errNames       string // substring of the hard error; "" for none
	}{
		{name: "no file matches"},
		{name: "healthy files", files: map[string][]byte{"p1.ftlog": p1, "p2.ftlog": p2}, records: 5},
		{name: "keeps merging past a crashed file",
			files:   map[string][]byte{"a-crashed.ftlog": p1[:len(p1)-2], "b-healthy.ftlog": p2},
			records: 4, warns: 1},
		{name: "a torn tail counts once per file",
			files:   map[string][]byte{"a.ftlog": p1[:len(p1)-1], "b.ftlog": p2[:len(p2)-1], "c.ftlog": p2},
			records: 5, warns: 2},
		{name: "a writer that flushed nothing", files: map[string][]byte{"a.ftlog": nil, "b.ftlog": p2}, records: 2},
		{name: "a file that is no record stream aborts and is named",
			files:   map[string][]byte{"a.ftlog": p1, "b-alien.ftlog": []byte("not a record stream at all"), "c.ftlog": p2},
			records: 3, errNames: "b-alien.ftlog"},
		{name: "a malformed frame aborts and is named",
			files:   map[string][]byte{"a-bad.ftlog": append(append([]byte(nil), p1...), 0, 0, 0, 0), "b.ftlog": p2},
			records: 3, errNames: "a-bad.ftlog"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, data := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			db := NewStore()
			n, warns, err := db.LoadGlob(filepath.Join(dir, "*.ftlog"))
			if n != tc.records || db.Len() != tc.records || warns != tc.warns {
				t.Errorf("merged %d records (store %d) with %d warnings, want %d and %d", n, db.Len(), warns, tc.records, tc.warns)
			}
			switch {
			case tc.errNames == "" && err != nil:
				t.Errorf("merge aborted: %v", err)
			case tc.errNames != "" && (err == nil || !strings.Contains(err.Error(), tc.errNames)):
				t.Errorf("error %v does not name %s", err, tc.errNames)
			}
		})
	}
	if _, _, err := NewStore().LoadGlob("[bad"); err == nil {
		t.Error("malformed pattern accepted")
	}
}

func TestSaveFileLoads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ftlog")
	s := NewStore()
	c := uuid.New()
	s.Insert(ev(c, 1, ftl.StubStart, "F"), ev(c, 2, ftl.StubEnd, "F"))
	if err := SaveFile(s, path); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	if n, warn, err := s2.LoadGlob(path); err != nil || warn != 0 || n != 2 || s2.Len() != 2 {
		t.Fatalf("loaded %d records (store %d), %d warnings, %v", n, s2.Len(), warn, err)
	}
	if err := SaveFile(s, filepath.Join(path, "under-a-file")); err == nil {
		t.Fatal("saving under a regular file succeeded")
	}
}

func TestEventsLazySort(t *testing.T) {
	s := NewStore()
	c := uuid.New()
	// Out-of-order insert marks the chain dirty; the first query sorts it
	// in place and clears the flag, so later queries are pure copy-out.
	s.Insert(ev(c, 2, ftl.SkelStart, "F"), ev(c, 1, ftl.StubStart, "F"))
	if !s.events[c].dirty {
		t.Fatal("out-of-order insert did not mark the chain dirty")
	}
	if got := s.Events(c); got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("Events not sorted: %v", got)
	}
	if s.events[c].dirty {
		t.Fatal("query did not clear the dirty flag")
	}
	// In-order append onto a sorted chain must stay clean: the hot path of
	// live ingest (per-connection order preserved) never pays a sort.
	s.Insert(ev(c, 3, ftl.SkelEnd, "F"), ev(c, 4, ftl.StubEnd, "F"))
	if s.events[c].dirty {
		t.Fatal("in-order append marked the chain dirty")
	}
	if got := s.Events(c); len(got) != 4 || got[3].Seq != 4 {
		t.Fatalf("Events after append: %v", got)
	}
	// A late out-of-order record re-dirties and re-sorts exactly once.
	s.Insert(ev(c, 0, ftl.StubStart, "Z"))
	if !s.events[c].dirty {
		t.Fatal("late out-of-order record did not re-dirty the chain")
	}
	if got := s.Events(c); got[0].Seq != 0 {
		t.Fatalf("re-sort failed: %v", got)
	}
	// The returned slice is a copy: mutating it must not corrupt the store.
	got := s.Events(c)
	got[0].Seq = 99
	if s.Events(c)[0].Seq == 99 {
		t.Fatal("Events returned the store's own slice")
	}
}
