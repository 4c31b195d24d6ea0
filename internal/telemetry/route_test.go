package telemetry

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"causeway/internal/probe"
	"causeway/internal/transport"
	"causeway/internal/uuid"
)

// ringServer is a collector serving a ring the test sets.
type ringServer struct {
	*Server
	sink *probe.MemorySink
	mu   sync.Mutex
	ring Ring
}

func startRingServer(t *testing.T) *ringServer {
	t.Helper()
	rs := &ringServer{sink: &probe.MemorySink{}}
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Sinks: []probe.Sink{rs.sink},
		Ring: func() (Ring, bool) {
			rs.mu.Lock()
			defer rs.mu.Unlock()
			return rs.ring, !rs.ring.IsZero()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	rs.Server = srv
	return rs
}

func (rs *ringServer) serve(r Ring) {
	rs.mu.Lock()
	rs.ring = r
	rs.mu.Unlock()
}

// routeConfig is a fast shipper routing by ring.
func routeConfig(ring Ring, dial func(string) (transport.Client, error)) ShipperConfig {
	return ShipperConfig{
		Ring:          ring,
		Process:       testProc("p1"),
		BufferSize:    1024,
		FlushInterval: 2 * time.Millisecond,
		BackoffMin:    5 * time.Millisecond,
		BackoffMax:    20 * time.Millisecond,
		DrainTimeout:  time.Second,
		PollInterval:  5 * time.Millisecond,
		Dial:          dial,
	}
}

// chainSpans builds chains of n event records each, interleaved seq by
// seq, so every take mixes chains of every member.
func chainSpans(chains, n int) []probe.Record {
	gen := &uuid.SequentialGenerator{Seed: 17}
	ids := make([]uuid.UUID, chains)
	for i := range ids {
		ids[i] = gen.NewUUID()
	}
	var out []probe.Record
	for seq := 1; seq <= n; seq++ {
		for _, c := range ids {
			r := testRecord("p1", uint64(seq))
			r.Chain = c
			out = append(out, r)
		}
	}
	return out
}

// assertInOrderOnce fails unless recs hold as many records as were
// shipped, each chain's in strictly increasing seq: every record once, in
// order.
func assertInOrderOnce(t *testing.T, recs, shipped []probe.Record) {
	t.Helper()
	if len(recs) != len(shipped) {
		t.Fatalf("collector holds %d records, want %d", len(recs), len(shipped))
	}
	last := make(map[uuid.UUID]uint64)
	for _, r := range recs {
		if r.Seq <= last[r.Chain] {
			t.Fatalf("chain %s: seq %d arrived after %d", r.Chain.Short(), r.Seq, last[r.Chain])
		}
		last[r.Chain] = r.Seq
	}
}

// A member that is down when a new epoch drops it holds its part until
// then: the part goes back through the split to the new owner, ahead of
// every record taken later, and nothing is counted dropped.
func TestShipperHandsDownMembersPartToNewOwner(t *testing.T) {
	a := startRingServer(t)
	const down = "down:1"
	ring1 := testRing(1, a.Addr(), down)
	a.serve(ring1)
	sh, err := NewShipper(routeConfig(ring1, func(addr string) (transport.Client, error) {
		if addr == down {
			return nil, errors.New("collector down")
		}
		return transport.DialTCP(addr)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	recs := chainSpans(16, 8)
	owned := 0
	for i := range recs {
		if m, _ := ring1.OwnerOf(RouteUUID(&recs[i])); m.ID == down {
			owned++
		}
		sh.Append(recs[i])
	}
	if owned == 0 || owned == len(recs) {
		t.Fatalf("%d of %d records owned by the down member; the test needs some of each", owned, len(recs))
	}
	// Records wait while the down member holds its part.
	time.Sleep(30 * time.Millisecond)
	if st := sh.Stats(); st.Shipped+st.Dropped+uint64(st.Buffered) != uint64(len(recs)) || st.Buffered < owned {
		t.Fatalf("before the new epoch: %+v, want at least the down member's %d records buffered", st, owned)
	}

	a.serve(testRing(2, a.Addr()))
	waitFor(t, func() bool { return sh.Stats().Shipped == uint64(len(recs)) }, "every record shipped to the new owner")
	a.Quiesce(func() {}) // the last acknowledged frame applied
	st := sh.Stats()
	if st.Dropped != 0 || st.Rebalances != 1 || st.Rerouted == 0 || st.Buffered != 0 {
		t.Fatalf("after the new epoch: %+v, want 0 dropped, 1 rebalance, some rerouted", st)
	}
	assertInOrderOnce(t, a.sink.Snapshot(), recs)
}

// A member that is down holds only its own part: with no ring change, the
// live member keeps receiving every chain it owns, in order, none dropped,
// and the down member's part stays within the ring's record capacity,
// losing its oldest records into its own account.
func TestShipperShipsPastADownMember(t *testing.T) {
	a := startRingServer(t)
	const down = "down:1"
	ring := testRing(1, a.Addr(), down)
	cfg := routeConfig(ring, func(addr string) (transport.Client, error) {
		if addr == down {
			return nil, errors.New("collector down")
		}
		return transport.DialTCP(addr)
	})
	cfg.BufferSize = 128
	const partCap = 4 * 128
	sh, err := NewShipper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sh.Stats().Connected }, "the live member's handshake")

	recs := chainSpans(100, 20)
	var live []probe.Record
	for i, r := range recs {
		if m, _ := ring.OwnerOf(RouteUUID(&r)); m.ID != down {
			live = append(live, r)
		}
		sh.Append(r)
		if i%10 == 9 {
			time.Sleep(time.Millisecond)
		}
	}
	owned := len(recs) - len(live)
	if owned <= partCap || len(live) == 0 {
		t.Fatalf("the down member owns %d of %d records; the test needs more than its part's %d, and some live", owned, len(recs), partCap)
	}
	waitFor(t, func() bool { return sh.Stats().Shipped == uint64(len(live)) }, "every live-owned record shipped")
	a.Quiesce(func() {})
	st := sh.Stats()
	if st.Dropped == 0 || st.Buffered > partCap || st.Dropped+uint64(st.Buffered) != uint64(owned) {
		t.Fatalf("with a member down: %+v; want the down member's %d records held (at most %d) or dropped, nothing else", st, owned, partCap)
	}
	assertInOrderOnce(t, a.sink.Snapshot(), live)

	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	if st := sh.Stats(); st.Shipped != uint64(len(live)) || st.Dropped != uint64(owned) || st.Buffered != 0 {
		t.Fatalf("after Close: %+v, want %d shipped and the down member's %d dropped", st, len(live), owned)
	}
	accts := a.PeerAccounting()
	if len(accts) != 1 || accts[0].Shipper != (ShipperFinal{Appended: uint64(len(live)), Shipped: uint64(len(live))}) {
		t.Fatalf("the live member's closing account: %+v, want all %d of its records shipped, none dropped", accts, len(live))
	}
}

// A collector slower to acknowledge than DrainTimeout still makes
// progress: a running ship call is not bounded by Close's budget, so every
// frame goes once and the connection stays up.
func TestShipperWaitsForSlowAck(t *testing.T) {
	tsrv, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tsrv.Close()
	const delay = 150 * time.Millisecond
	var ships, records atomic64
	if err := tsrv.Serve(func(conn transport.ConnID, req transport.Request, respond transport.Responder) {
		switch req.Operation {
		case opHello:
			respond(transport.Reply{Status: transport.StatusOK, Body: encodeHelloReply(HelloReply{Version: ProtocolVersion})})
		case opShip:
			var dec probe.FrameDecoder
			recs, err := dec.Decode(req.Body)
			if err != nil {
				t.Error(err)
			}
			ships.add(1)
			records.add(uint64(len(recs)))
			go func() {
				time.Sleep(delay)
				respond(transport.Reply{Status: transport.StatusOK})
			}()
		default:
			if !req.Oneway {
				respond(transport.Reply{Status: transport.StatusOK})
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	sh := fastShipperDrain(t, tsrv.Addr(), "p1", 1024, delay/3)
	defer sh.Close()
	const n = 300
	for i := 1; i <= n; i++ {
		sh.Append(testRecord("p1", uint64(i)))
		if i%100 == 0 {
			time.Sleep(delay / 2)
		}
	}
	waitFor(t, func() bool { return sh.Stats().Shipped == n }, "every record acknowledged")
	st := sh.Stats()
	if st.Reconnects != 0 || ships.load() != st.Batches || records.load() != n {
		t.Fatalf("%+v: the collector took %d frames of %d records, want each of the %d frames once, no reconnect", st, ships.load(), records.load(), st.Batches)
	}
}

// wedgedClient answers everything but ship calls, which it leaves
// unanswered until the connection is closed, as a collector whose journal
// has stalled does.
type wedgedClient struct {
	transport.Client
	ships  *atomic64
	once   sync.Once
	closed chan struct{}
}

func (w *wedgedClient) Call(req transport.Request) (transport.Reply, error) {
	if req.Operation != opShip {
		return w.Client.Call(req)
	}
	w.ships.add(1)
	<-w.closed
	return transport.Reply{}, transport.ErrClosed
}

func (w *wedgedClient) Close() error {
	w.once.Do(func() { close(w.closed) })
	return w.Client.Close()
}

// A member whose ship calls never return does not stop the others: they
// ship while its call hangs, and once the served ring drops it, its part
// reaches the new owner, and so does everything after, with nothing
// dropped.
func TestShipperOutlivesWedgedMember(t *testing.T) {
	a, b := startRingServer(t), startRingServer(t)
	ring1 := testRing(1, a.Addr(), b.Addr())
	a.serve(ring1)
	b.serve(ring1)
	var wedged atomic64
	cfg := routeConfig(ring1, func(addr string) (transport.Client, error) {
		c, err := transport.DialTCP(addr)
		if err != nil || addr != b.Addr() {
			return c, err
		}
		return &wedgedClient{Client: c, ships: &wedged, closed: make(chan struct{})}, nil
	})
	cfg.DrainTimeout = 100 * time.Millisecond
	sh, err := NewShipper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	recs := chainSpans(16, 8)
	first, second := recs[:len(recs)/2], recs[len(recs)/2:]
	for _, r := range first {
		sh.Append(r)
	}
	waitFor(t, func() bool { return wedged.load() > 0 }, "a ship call wedged on the member")
	aOwned := 0
	for i := range first {
		if m, _ := ring1.OwnerOf(RouteUUID(&first[i])); m.ID == a.Addr() {
			aOwned++
		}
	}
	waitFor(t, func() bool { return a.Stats().Records == uint64(aOwned) }, "the other member's records shipped past the wedged call")

	ring2 := testRing(2, a.Addr())
	a.serve(ring2)
	b.serve(ring2)
	waitFor(t, func() bool { return sh.Ring().Epoch == 2 }, "the ring without the wedged member")
	for _, r := range second {
		sh.Append(r)
	}
	// The server counts a frame after its reply, and the shipper after it
	// reads the reply: wait on the shipper, then for the apply.
	waitFor(t, func() bool { return sh.Stats().Shipped == uint64(len(recs)) }, "every record acknowledged by the remaining member")
	a.Quiesce(func() {})
	if st := sh.Stats(); st.Dropped != 0 || a.Stats().Records != uint64(len(recs)) {
		t.Fatalf("after the wedged member left the ring: %+v, %d records on the remaining member", st, a.Stats().Records)
	}
	if got := b.Stats().Records; got != 0 {
		t.Fatalf("the wedged member ingested %d records", got)
	}
	assertInOrderOnce(t, a.sink.Snapshot(), recs)
}

// At Close every member gets its own closing account, and each balances on
// its own: what the split gave it is what it acknowledged plus what was
// dropped, and the accounts sum to the process's.
func TestCloseReportsEachMembersAccount(t *testing.T) {
	a, b := startRingServer(t), startRingServer(t)
	sh, err := NewShipper(routeConfig(testRing(1, a.Addr(), b.Addr()), nil))
	if err != nil {
		t.Fatal(err)
	}
	recs := chainSpans(16, 8)
	for _, r := range recs {
		sh.Append(r)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	var sum ShipperFinal
	for i, srv := range []*ringServer{a, b} {
		accts := srv.PeerAccounting()
		if len(accts) != 1 || !accts[0].Reported {
			t.Fatalf("member %d holds %+v, want one reported peer", i, accts)
		}
		f := accts[0].Shipper
		if f.Appended != f.Shipped+f.Dropped || f.Shipped != accts[0].Records || f.Appended == 0 {
			t.Fatalf("member %d's closing account %+v does not balance against %d records ingested", i, f, accts[0].Records)
		}
		sum.Appended += f.Appended
		sum.Shipped += f.Shipped
		sum.Dropped += f.Dropped
	}
	st := sh.Stats()
	if want := (ShipperFinal{Appended: st.Appended, Dropped: st.Dropped, Shipped: st.Shipped}); sum != want {
		t.Fatalf("members' accounts sum to %+v, the process's is %+v", sum, want)
	}
}

// A span longer than a cell's four records takes several cells: every
// record ships, the buffered count returns to zero, and Close returns.
func TestShipperShipsLongSpans(t *testing.T) {
	a := startRingServer(t)
	sh := fastShipper(t, a.Addr(), "p1", 1024)
	const spans, n = 50, 12
	for i := 0; i < spans; i++ {
		span := make([]probe.Record, n)
		for j := range span {
			span[j] = testRecord("p1", uint64(i*n+j+1))
		}
		sh.AppendSpan(span)
	}
	waitFor(t, func() bool { return sh.Stats().Shipped == spans*n }, "every record of the long spans shipped")
	if st := sh.Stats(); st.Buffered != 0 || st.Dropped != 0 {
		t.Fatalf("after shipping: %+v", st)
	}
	closed := make(chan struct{})
	go func() { sh.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
}

// BenchmarkShipperTier ships 4-record spans of 1024 chains from one process
// to a tier of collectors on loopback, as fast as a window of 4096
// unacknowledged records allows (waiting 200µs while it is full, as the
// ingest benchmark's generator does), and reports records/s and ship
// frames per record.
func BenchmarkShipperTier(b *testing.B) {
	for _, n := range []int{1, 3} {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			addrs := make([]string, n)
			srvs := make([]*Server, n)
			for i := range addrs {
				srv, err := Listen("127.0.0.1:0", ServerConfig{Sinks: []probe.Sink{&probe.CountingSink{}}})
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				addrs[i], srvs[i] = srv.Addr(), srv
			}
			sh, err := NewShipper(ShipperConfig{Ring: testRing(1, addrs...), Process: testProc("p1")})
			if err != nil {
				b.Fatal(err)
			}
			defer sh.Close()
			for sh.Stats().Connects < uint64(n) {
				time.Sleep(time.Millisecond)
			}
			recs := chainSpans(1024, 4)
			spans := make([][]probe.Record, 0, 1024)
			for c := 0; c < 1024; c++ {
				span := make([]probe.Record, 4)
				for seq := range span {
					span[seq] = recs[seq*1024+c]
				}
				spans = append(spans, span)
			}
			const window = 4096
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				for i%16 == 0 && sh.Stats().Buffered > window {
					time.Sleep(200 * time.Microsecond)
				}
				sh.AppendSpan(spans[i%len(spans)])
			}
			for sh.Stats().Buffered > 0 {
				time.Sleep(200 * time.Microsecond)
			}
			elapsed := time.Since(start)
			b.StopTimer()
			st := sh.Stats()
			var ingested uint64
			for _, srv := range srvs {
				srv.Quiesce(func() {})
				ingested += srv.Stats().Records
			}
			if st.Dropped != 0 || ingested != st.Shipped || st.Shipped != st.Appended {
				b.Fatalf("%+v, %d ingested", st, ingested)
			}
			b.ReportMetric(float64(st.Shipped)/elapsed.Seconds(), "records/s")
			b.ReportMetric(float64(st.Batches)/float64(st.Shipped), "frames/record")
		})
	}
}
