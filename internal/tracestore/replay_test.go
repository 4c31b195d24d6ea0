package tracestore

import (
	"testing"
	"time"

	"causeway/internal/ftl"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/uuid"
)

// replayStore is the replay-facing slice of the store interface both
// backends offer a collector node (cluster.Store).
type replayStore interface {
	Insert(recs ...probe.Record)
	InsertNew(recs ...probe.Record) int
	logdb.Records
	ChildChain(parent uuid.UUID, seq uint64) (uuid.UUID, bool)
	Len() int
}

// replayBackends are the memory and the disk backend. open yields the
// store rooted at dir (the memory store ignores dir) and its close; only
// a durable backend can be closed and reopened from what it wrote.
var replayBackends = []struct {
	name    string
	durable bool
	open    func(t *testing.T, dir string, shards int) (replayStore, func())
}{
	{"logdb", false, func(*testing.T, string, int) (replayStore, func()) {
		return logdb.NewStore(), func() {}
	}},
	{"tracestore", true, func(t *testing.T, dir string, shards int) (replayStore, func()) {
		s, err := Open(dir, Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		return s, func() {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}},
}

// InsertNew must accept each (chain, seq) / (parent, seq) identity once,
// across both the live-insert and replay paths, and on disk survive a
// reopen (the index the dedup consults is rebuilt from segments).
func TestInsertNewDeduplicates(t *testing.T) {
	for _, b := range replayBackends {
		t.Run(b.name, func(t *testing.T) {
			dir := t.TempDir()
			s, closeStore := b.open(t, dir, 4)
			defer func() { closeStore() }()

			c1, c2 := chainID(1), chainID(2)
			wall := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
			recs := []probe.Record{
				ev(c1, 1, ftl.StubStart, "I", wall),
				ev(c1, 2, ftl.StubEnd, "I", wall),
				link(c1, 1, c2),
				ev(c2, 1, ftl.SkelStart, "J", wall),
			}
			s.Insert(recs[0], recs[2]) // two arrive live
			if got := s.InsertNew(recs...); got != 2 {
				t.Fatalf("InsertNew accepted %d, want 2 (two were already live)", got)
			}
			if got := s.InsertNew(recs...); got != 0 {
				t.Fatalf("second InsertNew accepted %d, want 0", got)
			}
			if s.Len() != 4 {
				t.Fatalf("store has %d records, want 4", s.Len())
			}

			// Reopen: dedup must hold against the recovered index too.
			if b.durable {
				closeStore()
				s, closeStore = b.open(t, dir, 4)
			}
			if got := s.InsertNew(recs...); got != 0 {
				t.Fatalf("post-reopen InsertNew accepted %d, want 0", got)
			}
			if got := s.InsertNew(ev(c2, 2, ftl.SkelEnd, "J", wall)); got != 1 {
				t.Fatalf("fresh record rejected after reopen")
			}
			if s.Len() != 5 {
				t.Fatalf("store has %d records after reopen, want 5", s.Len())
			}
		})
	}
}

// One Insert of a batch that interleaves several chains' events with links
// must land every event under its own chain, in the order given, and every
// link under its parent chain — the routing rule (events by Chain, links by
// LinkParent, whose Chain is zero) applied record by record, whatever shards
// the batch spans. InsertNew routes the same way and skips what is held.
func TestInsertRoutesMixedBatch(t *testing.T) {
	const chains, perChain = 12, 9
	wall := time.Date(2026, 9, 26, 12, 0, 0, 0, time.UTC)
	var batch []probe.Record
	for seq := uint64(1); seq <= perChain; seq++ {
		for c := byte(1); c <= chains; c++ {
			batch = append(batch, ev(chainID(c), seq, ftl.StubStart, "I", wall))
			if seq%3 == 0 {
				// A oneway fork of chain c at seq: the child chain is c+100.
				batch = append(batch, link(chainID(c), seq, chainID(c+100)))
			}
		}
	}
	check := func(t *testing.T, s replayStore) {
		t.Helper()
		links := 0
		for c := byte(1); c <= chains; c++ {
			got := s.Events(chainID(c))
			if len(got) != perChain {
				t.Fatalf("chain %d: %d events, want %d", c, len(got), perChain)
			}
			for i, r := range got {
				if r.Chain != chainID(c) || r.Seq != uint64(i+1) {
					t.Fatalf("chain %d event %d: chain %v seq %d", c, i, r.Chain, r.Seq)
				}
			}
			for seq := uint64(3); seq <= perChain; seq += 3 {
				links++
				if child, ok := s.ChildChain(chainID(c), seq); !ok || child != chainID(c+100) {
					t.Fatalf("link of chain %d at seq %d: %v %v", c, seq, child, ok)
				}
			}
		}
		if want := chains*perChain + links; s.Len() != want {
			t.Fatalf("store holds %d records, want %d", s.Len(), want)
		}
	}
	for _, b := range replayBackends {
		t.Run(b.name, func(t *testing.T) {
			s, closeStore := b.open(t, t.TempDir(), 8)
			defer closeStore()
			s.Insert(batch...)
			check(t, s)
			if ts, ok := s.(*Store); ok {
				used := 0
				for _, sh := range ts.shards {
					used += min(1, len(sh.chains)+len(sh.links))
					for c, ci := range sh.chains {
						if ci.dirty {
							t.Fatalf("chain %v index dirty after a seq-ordered insert", c)
						}
					}
				}
				if used < 2 {
					t.Fatalf("the batch landed in %d shard(s); the test needs a mixed one", used)
				}
			}
			// The same batch again, a new chain mixed in: only that is new.
			again := append([]probe.Record{ev(chainID(50), 1, ftl.StubStart, "I", wall)}, batch...)
			again = append(again, ev(chainID(50), 2, ftl.StubEnd, "I", wall), link(chainID(50), 1, chainID(150)))
			if got := s.InsertNew(again...); got != 3 {
				t.Fatalf("InsertNew accepted %d of a batch with 3 new records", got)
			}
			if child, ok := s.ChildChain(chainID(50), 1); len(s.Events(chainID(50))) != 2 || !ok || child != chainID(150) {
				t.Fatalf("new chain after InsertNew: %d events, link %v %v", len(s.Events(chainID(50))), child, ok)
			}
		})
		t.Run(b.name+"/InsertNew", func(t *testing.T) {
			s, closeStore := b.open(t, t.TempDir(), 8)
			defer closeStore()
			// Every record twice in one batch: each identity counts once.
			if got, want := s.InsertNew(append(batch[:len(batch):len(batch)], batch...)...), len(batch); got != want {
				t.Fatalf("InsertNew accepted %d of %d distinct records sent twice", got, want)
			}
			check(t, s)
		})
	}
}

// RangeRecords must emit exactly the records routing into the selected
// hash range — events by chain, links by parent — in WriteRecords order,
// and a replay into a second store must reproduce the range faithfully.
func TestRangeRecordsSelectsByRoutingUUID(t *testing.T) {
	for _, b := range replayBackends {
		t.Run(b.name, func(t *testing.T) {
			src, closeSrc := b.open(t, t.TempDir(), 4)
			defer closeSrc()

			wall := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
			chains := []uuid.UUID{chainID(1), chainID(2), chainID(3), chainID(4)}
			for i, c := range chains {
				src.Insert(
					ev(c, 1, ftl.StubStart, "I", wall),
					ev(c, 2, ftl.StubEnd, "I", wall),
					link(c, 1, chainID(byte(10+i))),
				)
			}

			// Select half the chains by hash parity — an arbitrary but
			// deterministic "moved range".
			pred := func(u uuid.UUID) bool { return uuid.Hash64(u)%2 == 0 }
			wantChains := map[uuid.UUID]bool{}
			for _, c := range chains {
				if pred(c) {
					wantChains[c] = true
				}
			}
			if len(wantChains) == 0 || len(wantChains) == len(chains) {
				t.Fatalf("degenerate split: %d of %d chains selected", len(wantChains), len(chains))
			}

			dst, closeDst := b.open(t, t.TempDir(), 2)
			defer closeDst()

			emitted := 0
			linksDone := false
			if err := logdb.RangeRecords(src, pred, func(r probe.Record) error {
				switch r.Kind {
				case probe.KindLink:
					if linksDone {
						t.Fatal("link emitted after events began (WriteRecords order violated)")
					}
					if !wantChains[r.LinkParent] {
						t.Fatalf("link for unselected parent %s emitted", r.LinkParent.Short())
					}
				case probe.KindEvent:
					linksDone = true
					if !wantChains[r.Chain] {
						t.Fatalf("event for unselected chain %s emitted", r.Chain.Short())
					}
				}
				emitted++
				if dst.InsertNew(r) != 1 {
					t.Fatalf("replayed record rejected as duplicate: %+v", r)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if want := len(wantChains) * 3; emitted != want {
				t.Fatalf("emitted %d records, want %d", emitted, want)
			}

			// The replayed range must read back identically from the new owner.
			for c := range wantChains {
				sameRecords(t, "replayed "+c.Short(), dst.Events(c), src.Events(c))
				if child, ok := dst.ChildChain(c, 1); !ok || child != chainIDFromSrc(src, c) {
					t.Fatalf("replayed link for %s missing or wrong", c.Short())
				}
			}
		})
	}
}

func chainIDFromSrc(src replayStore, parent uuid.UUID) uuid.UUID {
	child, _ := src.ChildChain(parent, 1)
	return child
}
