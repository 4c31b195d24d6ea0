package telemetry

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"causeway/internal/probe"
	"causeway/internal/transport"
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
	mem := &probe.MemorySink{}
	srv, err := Listen("127.0.0.1:0", ServerConfig{Sinks: []probe.Sink{mem}})
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
	if mem.Len() != total {
		t.Fatalf("server sink holds %d records, want %d", mem.Len(), total)
	}
}

// opLog is a transport.Client that notes every request it sends.
type opLog struct {
	transport.Client
	mu  sync.Mutex
	ops []string // operation, "(oneway)" appended to posts
}

func (c *opLog) note(op string) {
	c.mu.Lock()
	c.ops = append(c.ops, op)
	c.mu.Unlock()
}

func (c *opLog) Call(req transport.Request) (transport.Reply, error) {
	c.note(req.Operation)
	return c.Client.Call(req)
}

func (c *opLog) Post(req transport.Request) error {
	c.note(req.Operation + " (oneway)")
	return c.Client.Post(req)
}

// TestCloseReportsClosingAccount: once Close returns, the server holds the
// shipper's closing account and it matches the shipper's own counters. The
// account is the last message the shipper sends, as a sync call whose
// reply is all the confirmation there is.
func TestCloseReportsClosingAccount(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerConfig{Sinks: []probe.Sink{&probe.MemorySink{}}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var conns []*opLog
	sh, err := NewShipper(ShipperConfig{
		Addr:          srv.Addr(),
		Process:       testProc("p1"),
		FlushInterval: 2 * time.Millisecond,
		DrainTimeout:  5 * time.Second,
		Dial: func(addr string) (transport.Client, error) {
			c, err := transport.DialTCP(addr)
			if err != nil {
				return nil, err
			}
			l := &opLog{Client: c}
			conns = append(conns, l) // the loop dials; Close orders this before the reads below
			return l, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	for i := 1; i <= n; i++ {
		sh.Append(testRecord("p1", uint64(i)))
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	st := sh.Stats()
	accts := srv.PeerAccounting()
	if len(accts) != 1 || !accts[0].Reported {
		t.Fatalf("after Close the server holds %+v, want one reported peer", accts)
	}
	want := ShipperFinal{Appended: st.Appended, Dropped: st.Dropped, Shipped: st.Shipped}
	if got := accts[0].Shipper; got != want || want.Shipped != n {
		t.Fatalf("closing account = %+v, want %+v with %d shipped", got, want, n)
	}
	if accts[0].Records != n {
		t.Fatalf("server ingested %d records from the peer, want %d", accts[0].Records, n)
	}
	if len(conns) != 1 {
		t.Fatalf("shipper dialed %d times, want 1", len(conns))
	}
	ops := conns[0].ops
	if len(ops) == 0 || ops[len(ops)-1] != opStats {
		t.Fatalf("shipper's messages end %q, want a sync %q last", ops, opStats)
	}
	for _, op := range ops[:len(ops)-1] {
		if op != opHello && op != opShip {
			t.Fatalf("shipper sent %q before its closing account (all: %q)", op, ops)
		}
	}
}
