package cluster

import (
	"testing"

	"causeway/internal/telemetry"
	"causeway/internal/tracestore"
	"causeway/internal/uuid"
)

// startReplayTarget runs a collector node over a trace store — replays
// land in it via InsertNew, the wiring clustered collectd uses — and
// returns its telemetry server and the store.
func startReplayTarget(t *testing.T, dir string) (*telemetry.Server, *tracestore.Store) {
	t.Helper()
	ts, err := tracestore.Open(dir, tracestore.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	node, err := StartNode(NodeConfig{Listen: "127.0.0.1:0", Store: ts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	return node.Server(), ts
}

// A dead collector's directory reopens, its moved range replays to the
// new owner exactly once, and the recovered ledger balances through the
// retire/replay pairing.
func TestReplayMovedRangeOnce(t *testing.T) {
	srcDir := t.TempDir()
	src, err := tracestore.Open(srcDir, tracestore.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	gen := &uuid.SequentialGenerator{Seed: 1234}
	total := 0
	for i := 0; i < 60; i++ {
		recs := chainRecords(gen.NewUUID(), gen.NewUUID())
		src.Insert(recs...)
		total += len(recs)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	// The collector is dead; reopen its segments like a new owner would.
	src, err = tracestore.Open(srcDir, tracestore.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dead := RecoverLedger(src)
	if !dead.Balanced() || dead.Appended != uint64(total) {
		t.Fatalf("recovered ledger: %s", dead)
	}

	// Two survivors split the dead member's slots.
	srvA, storeA := startReplayTarget(t, t.TempDir())
	srvB, storeB := startReplayTarget(t, t.TempDir())
	ring, err := Assign(2, 64, Members(srvA.Addr(), srvB.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	resA, err := Replay(ReplayConfig{Source: src, Range: OwnedBy(ring, srvA.Addr()), Target: srvA.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Replay(ReplayConfig{Source: src, Range: OwnedBy(ring, srvB.Addr()), Target: srvB.Addr(), BatchSize: 7})
	if err != nil {
		t.Fatal(err)
	}
	if resA.Scanned+resB.Scanned != uint64(total) {
		t.Fatalf("ranges scanned %d+%d, want %d", resA.Scanned, resB.Scanned, total)
	}
	if resA.Accepted != resA.Scanned || resB.Accepted != resB.Scanned || resA.Rejected+resB.Rejected != 0 {
		t.Fatalf("first replay rejected records: %+v %+v", resA, resB)
	}
	if got := storeA.Len() + storeB.Len(); got != total {
		t.Fatalf("new owners hold %d records, want %d", got, total)
	}

	// Retire what the receivers accepted; dead member stays balanced and
	// the tier invariant holds.
	dead = dead.Retire(resA.Accepted).Retire(resB.Accepted)
	ledgerA := Ledger{Appended: 0, Replayed: resA.Accepted, Persisted: resA.Accepted}
	ledgerB := Ledger{Appended: 0, Replayed: resB.Accepted, Persisted: resB.Accepted}
	tier := Sum(dead, ledgerA, ledgerB)
	if !tier.Balanced() || tier.Replayed != tier.Retired {
		t.Fatalf("tier ledger after replay: %s", tier)
	}

	// A second replay of the same range — the crashed-replayer retry —
	// accepts nothing: the receiver's dedup counts every chain once.
	resA2, err := Replay(ReplayConfig{Source: src, Range: OwnedBy(ring, srvA.Addr()), Target: srvA.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if resA2.Accepted != 0 || resA2.Rejected != resA.Scanned {
		t.Fatalf("duplicate replay accepted %d, rejected %d (want 0/%d)", resA2.Accepted, resA2.Rejected, resA.Scanned)
	}
	if storeA.Len()+storeB.Len() != total {
		t.Fatalf("duplicate replay grew the stores to %d", storeA.Len()+storeB.Len())
	}
	// Server-side accounting distinguishes replay traffic from shipping.
	st := srvA.Stats()
	if st.Replayed != resA.Scanned || st.ReplayBatches == 0 || st.Records != 0 {
		t.Fatalf("server stats after replay: %+v", st)
	}

	if _, err := Replay(ReplayConfig{Range: OwnedBy(ring, "x"), Target: "x"}); err == nil {
		t.Fatal("replay without a source accepted")
	}
}
