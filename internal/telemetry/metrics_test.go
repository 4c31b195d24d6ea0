package telemetry

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"causeway/internal/logdb"
	"causeway/internal/probe"
)

// expositionValue extracts one series' integer value from a text
// exposition snippet.
func expositionValue(t *testing.T, text, series string) uint64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		name, value, ok := strings.Cut(line, " ")
		if ok && name == series {
			v, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				t.Fatalf("series %s has non-integer value %q", series, value)
			}
			return v
		}
	}
	t.Fatalf("series %s missing from exposition:\n%s", series, text)
	return 0
}

// TestShipperDropCountedInMetrics forces the drop-oldest overflow policy
// (tiny ring, nothing listening) and checks the loss shows up in the
// shipper's /metrics exposition — the monitoring plane must account for
// its own losses.
func TestShipperDropCountedInMetrics(t *testing.T) {
	sh := fastShipperDrain(t, "127.0.0.1:1", "p1", 8, 20*time.Millisecond)
	for i := 1; i <= 100; i++ {
		sh.Append(testRecord("p1", uint64(i)))
	}
	// Close quiesces the background loop, so the counters are final.
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	WriteShipperMetrics(&buf, sh.Stats())
	text := buf.String()

	dropped := expositionValue(t, text, "causeway_shipper_dropped_total")
	if dropped == 0 {
		t.Fatal("forced overflow did not increment causeway_shipper_dropped_total")
	}
	st := sh.Stats()
	if dropped != st.Dropped {
		t.Fatalf("exposition reports %d dropped, Stats reports %d", dropped, st.Dropped)
	}
	if appended := expositionValue(t, text, "causeway_shipper_appended_total"); appended != 100 {
		t.Fatalf("appended_total = %d, want 100", appended)
	}
	// Conservation holds in the exposition too.
	shipped := expositionValue(t, text, "causeway_shipper_shipped_total")
	if shipped+dropped != 100 {
		t.Fatalf("shipped %d + dropped %d != appended 100", shipped, dropped)
	}
}

// TestPeerAccountingConcurrentShippers runs many shippers into one server
// concurrently and checks the per-peer ledgers balance: the summed
// PeerAccount.Records equal the records the server ingested, and each
// peer's closing stats frame matches what the server ingested from that
// connection. Run under -race this also exercises the accounting locks.
func TestPeerAccountingConcurrentShippers(t *testing.T) {
	const (
		shippers = 8
		perShip  = 500
	)
	store := logdb.NewStore()
	srv, err := Listen("127.0.0.1:0", ServerConfig{Sinks: []probe.Sink{probe.StoreSink{Store: store}}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	shs := make([]*ShipperSink, shippers)
	for g := range shs {
		shs[g] = fastShipper(t, srv.Addr(), fmt.Sprintf("p%d", g), 4096)
	}
	var wg sync.WaitGroup
	for g, sh := range shs {
		wg.Add(1)
		go func(g int, sh *ShipperSink) {
			defer wg.Done()
			proc := fmt.Sprintf("p%d", g)
			for i := 1; i <= perShip; i++ {
				sh.Append(testRecord(proc, uint64(i)))
			}
			if err := sh.Close(); err != nil {
				t.Error(err)
			}
		}(g, sh)
	}
	wg.Wait()

	const total = shippers * perShip
	if st := srv.Stats(); st.Records != total || st.Peers != shippers {
		t.Fatalf("server stats = %+v, want %d records from %d peers", st, total, shippers)
	}
	accts := srv.PeerAccounting()
	if len(accts) != shippers {
		t.Fatalf("%d peer accounts, want %d", len(accts), shippers)
	}
	var sum uint64
	for _, a := range accts {
		sum += a.Records
		if !a.Reported {
			t.Errorf("peer %s never delivered its closing stats frame", a.Peer.Process)
			continue
		}
		if a.Shipper.Appended != perShip || a.Shipper.Dropped != 0 {
			t.Errorf("peer %s closing stats = %+v, want %d appended, 0 dropped",
				a.Peer.Process, a.Shipper, perShip)
		}
		if a.Records != a.Shipper.Shipped {
			t.Errorf("peer %s: server ingested %d, shipper claims %d shipped",
				a.Peer.Process, a.Records, a.Shipper.Shipped)
		}
	}
	if sum != total {
		t.Fatalf("peer ledgers sum to %d records, server ingested %d", sum, total)
	}
	if store.Len() != total {
		t.Fatalf("store has %d records, want %d", store.Len(), total)
	}
}
