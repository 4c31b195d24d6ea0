package telemetry

import (
	"testing"
	"time"

	"causeway/internal/ftl"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/streamrecon"
	"causeway/internal/uuid"
)

// fullChain is the canonical four-event call: stub start, skel start,
// skel end, stub end — a clean Figure-4 parse once whole.
func fullChain(chain uuid.UUID) []probe.Record {
	rec := func(seq uint64, e ftl.Event) probe.Record {
		return probe.Record{
			Kind: probe.KindEvent, Process: "recon", ProcType: "x86",
			Chain: chain, Seq: seq, Event: e,
			Op: probe.OpID{Interface: "I", Operation: "op"},
		}
	}
	return []probe.Record{
		rec(1, ftl.StubStart), rec(2, ftl.SkelStart),
		rec(3, ftl.SkelEnd), rec(4, ftl.StubEnd),
	}
}

// A collector dying mid-chain and coming back must not unbalance the
// streaming assembler's conservation ledger. Ship frames are oneway, so
// a batch written into the dying socket can vanish — that loss is the
// design's accepted cost, and exactly what the ledger has to stay honest
// about: every record that reaches the assembler sits in one bucket, the
// chains torn by the outage evict as broken rather than lingering, and
// Appended == Persisted + Discarded + Buffered holds throughout.
func TestShipperReconnectMidChainKeepsLedgerBalanced(t *testing.T) {
	asm, err := streamrecon.New(streamrecon.Config{
		Store:      logdb.NewStore(),
		Quiescence: 2 * time.Millisecond,
		StaleAfter: 10 * time.Second, // only the explicit flush evicts broken chains
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Listen("127.0.0.1:0", ServerConfig{Sinks: []probe.Sink{asm}})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	// Small batches so the tail spans several ship frames: the frames
	// after the first write observe the dead connection and trigger the
	// reconnect (a single frame could die silently and never re-dial).
	s, err := NewShipper(ShipperConfig{
		Addr:          addr,
		Process:       testProc("recon"),
		BufferSize:    4096,
		BatchSize:     8,
		FlushInterval: 2 * time.Millisecond,
		BackoffMin:    5 * time.Millisecond,
		BackoffMax:    50 * time.Millisecond,
		DrainTimeout:  3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	gen := &uuid.SequentialGenerator{Seed: 987654321}
	const chains = 40
	var heads, tails []probe.Record
	for i := 0; i < chains; i++ {
		recs := fullChain(gen.NewUUID())
		heads = append(heads, recs[:2]...)
		tails = append(tails, recs[2:]...)
	}
	for _, r := range heads {
		s.Append(r)
	}
	// Every head delivered before the collector dies, so the outage
	// splits each chain exactly in half.
	waitFor(t, func() bool {
		return asm.Ledger().Appended == uint64(len(heads)) && s.Stats().Buffered == 0
	}, "chain heads delivered")
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	for _, r := range tails {
		s.Append(r)
	}
	// Restart on the same address, feeding the same assembler — the
	// collector restart as the shipper sees it. The listener just closed,
	// so rebinding can race the kernel briefly.
	var srv2 *Server
	waitFor(t, func() bool {
		srv2, err = Listen(addr, ServerConfig{Sinks: []probe.Sink{asm}})
		return err == nil
	}, "rebinding the collector address")
	defer srv2.Close()

	// The shipper re-handshakes and pushes everything it still holds.
	waitFor(t, func() bool {
		st := s.Stats()
		return st.Connects >= 2 && st.Buffered == 0 && st.Shipped+st.Dropped == st.Appended
	}, "shipper re-handshake and tail delivery")
	st := s.Stats()
	if st.Dropped != 0 {
		t.Fatalf("shipper ring dropped %d records through the outage", st.Dropped)
	}

	// Quiesce the intact chains, then flush the ones the outage tore so
	// every buffered record is accounted.
	waitForDriving(t, func() { asm.Tick() }, func() bool {
		led := asm.Ledger()
		return led.Appended >= uint64(len(heads)) && led.Appended == asm.Ledger().Appended
	}, "post-reconnect ingest to settle")
	asm.Tick()
	time.Sleep(10 * time.Millisecond)
	asm.Tick()
	asm.FlushOpen()
	led := asm.Ledger()
	if led.Appended != led.Persisted+led.Discarded+led.Buffered {
		t.Fatalf("ledger unbalanced after reconnect: %+v", led)
	}
	if led.Appended < uint64(len(heads)) || led.Appended > uint64(len(heads)+len(tails)) {
		t.Fatalf("implausible ingest count across the reconnect: %+v", led)
	}
	if led.Buffered != 0 {
		t.Fatalf("records still buffered after the flush: %+v", led)
	}
	if asm.OpenChains() != 0 {
		t.Fatalf("%d chains still open after the flush", asm.OpenChains())
	}
}
