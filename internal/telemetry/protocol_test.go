package telemetry

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/transport"
)

func testRing(epoch uint64, addrs ...string) Ring {
	r := Ring{Epoch: epoch, Slots: 64}
	span := r.Slots / len(addrs)
	for i, a := range addrs {
		end := (i + 1) * span
		if i == len(addrs)-1 {
			end = r.Slots
		}
		r.Members = append(r.Members, RingMember{ID: a, Addr: a, Start: i * span, End: end})
	}
	return r
}

// What peers of earlier protocol versions put on the wire, byte for byte
// (gob, captured from the last commit that spoke it): a v1-era hello with no
// version octet, a v3 hello and a v3 server's ring-less hello reply.
const (
	gobHelloV1      = "E\x7f\x03\x01\x01\x05Hello\x01\xff\x80\x00\x01\x04\x01\aVersion\x01\x04\x00\x01\aProcess\x01\f\x00\x01\bProcType\x01\f\x00\x01\tDebugAddr\x01\f\x00\x00\x00\x0f\xff\x80\x01\x02\x01\x03old\x01\x03x86\x00"
	gobHelloV3      = "\x03E\x7f\x03\x01\x01\x05Hello\x01\xff\x80\x00\x01\x04\x01\aVersion\x01\x04\x00\x01\aProcess\x01\f\x00\x01\bProcType\x01\f\x00\x01\tDebugAddr\x01\f\x00\x00\x00\x0f\xff\x80\x01\x06\x01\x03old\x01\x03x86\x00"
	gobHelloReplyV3 = "\x03:\xff\x81\x03\x01\x01\nHelloReply\x01\xff\x82\x00\x01\x03\x01\aVersion\x01\x04\x00\x01\aHasRing\x01\x02\x00\x01\x04Ring\x01\xff\x84\x00\x00\x003\xff\x83\x03\x01\x01\x04Ring\x01\xff\x84\x00\x01\x03\x01\x05Epoch\x01\x06\x00\x01\x05Slots\x01\x04\x00\x01\aMembers\x01\xff\x88\x00\x00\x00%\xff\x87\x02\x01\x01\x16[]telemetry.RingMember\x01\xff\x88\x00\x01\xff\x86\x00\x00:\xff\x85\x03\x01\x01\nRingMember\x01\xff\x86\x00\x01\x04\x01\x02ID\x01\f\x00\x01\x04Addr\x01\f\x00\x01\x05Start\x01\x04\x00\x01\x03End\x01\x04\x00\x00\x00\a\xff\x82\x01\x06\x02\x00\x00"
)

// A version-mismatched handshake must fail with an error that names both
// versions — not a decode error, and never a silent accept.
func TestHandshakeVersionMismatchIsLoud(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := transport.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// A v1-era peer: raw gob with no version byte. The first gob byte is
	// not ProtocolVersion, so the server must reject before decoding.
	rep, err := client.Call(transport.Request{ObjectKey: ObjectKey, Operation: opHello, Body: []byte(gobHelloV1)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status == transport.StatusOK {
		t.Fatal("legacy un-versioned handshake accepted")
	}
	if msg := string(rep.Body); !strings.Contains(msg, "version") {
		t.Fatalf("rejection does not name the version problem: %q", msg)
	}

	// Framed peers of other versions — a real v3 shipper, whose hello is
	// gob behind the version octet, and one speaking today's layout under
	// another number: refused at hello, by version, before they can ship
	// anything, the refusal naming both versions.
	for claimed, hello := range map[int][]byte{
		3:                   []byte(gobHelloV3),
		ProtocolVersion + 1: encodeHello(Hello{Version: ProtocolVersion + 1, Process: "new", ProcType: "x86"}),
	} {
		rep, err = client.Call(transport.Request{ObjectKey: ObjectKey, Operation: opHello, Body: hello})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Status == transport.StatusOK {
			t.Fatalf("version-%d handshake accepted by version-%d server", claimed, ProtocolVersion)
		}
		msg := string(rep.Body)
		if !strings.Contains(msg, fmt.Sprintf("version %d", claimed)) || !strings.Contains(msg, fmt.Sprintf("want %d", ProtocolVersion)) {
			t.Fatalf("rejection does not name both versions: %q", msg)
		}
		if strings.Contains(msg, "decode") {
			t.Fatalf("rejection reads as a decode failure: %q", msg)
		}
	}
}

// The reverse flag day: a current shipper dialing a v3 collector. Whether
// that collector rejects the hello or answers it in its own version (gob
// behind the version octet), the shipper must end up with a version error in
// LastError — never a decode error, never a connection it ships frames over.
func TestShipperRefusesOlderServer(t *testing.T) {
	const prev = 3
	tsrv, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tsrv.Close()
	var shipped atomic64
	if err := tsrv.Serve(func(conn transport.ConnID, req transport.Request, respond transport.Responder) {
		switch req.Operation {
		case opHello:
			// An old collector lenient enough to accept: it answers in
			// its own version.
			respond(transport.Reply{Status: transport.StatusOK, Body: []byte(gobHelloReplyV3)})
		case opShip:
			shipped.add(1)
			respond(transport.Reply{Status: transport.StatusOK})
		default:
			if !req.Oneway {
				respond(transport.Reply{Status: transport.StatusOK})
			}
		}
	}); err != nil {
		t.Fatal(err)
	}

	sh := fastShipperDrain(t, tsrv.Addr(), "p1", 64, 50*time.Millisecond)
	sh.Append(testRecord("p1", 1))
	want := fmt.Sprintf("protocol version %d, want %d", prev, ProtocolVersion)
	waitFor(t, func() bool {
		return strings.Contains(sh.Stats().LastError, want)
	}, "older server's reply refused by version")
	if e := sh.Stats().LastError; strings.Contains(e, "decode") {
		t.Fatalf("refusal reads as a decode failure: %q", e)
	}
	sh.Close()
	if n := shipped.load(); n != 0 {
		t.Fatalf("%d ship frame(s) sent to a server of another version", n)
	}
	if st := sh.Stats(); st.Connects != 0 || st.Shipped != 0 {
		t.Fatalf("shipper counted a session with an older server: %+v", st)
	}
}

// The shipper surfaces the server's rejection in Stats().LastError
// instead of burying it in an anonymous reconnect loop.
func TestShipperSurfacesHandshakeRejection(t *testing.T) {
	// A server whose handler rejects every hello the way a
	// version-mismatched collector would.
	tsrv, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tsrv.Close()
	if err := tsrv.Serve(func(conn transport.ConnID, req transport.Request, respond transport.Responder) {
		if !req.Oneway {
			respond(transport.Reply{Status: transport.StatusSystemException, Body: []byte("telemetry: hello: protocol version 3, want 4 (mismatched causeway versions between shipper and collector)")})
		}
	}); err != nil {
		t.Fatal(err)
	}

	sh := fastShipperDrain(t, tsrv.Addr(), "p1", 64, 50*time.Millisecond)
	defer sh.Close()
	waitFor(t, func() bool {
		return strings.Contains(sh.Stats().LastError, "protocol version")
	}, "handshake rejection surfaced in LastError")
}

// The handshake reply delivers the ring; ring polls deliver only newer
// epochs.
func TestShipperLearnsRingFromHandshakeAndPolls(t *testing.T) {
	var mu sync.Mutex
	ring := testRing(3, "a:1", "b:2")
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Ring: func() (Ring, bool) {
			mu.Lock()
			defer mu.Unlock()
			return ring, true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var got sync.Map // epoch -> delivery count
	var deliveries atomic64
	sh, err := NewShipper(ShipperConfig{
		Addr:             srv.Addr(),
		Process:          testProc("p1"),
		BufferSize:       64,
		FlushInterval:    2 * time.Millisecond,
		BackoffMin:       5 * time.Millisecond,
		BackoffMax:       50 * time.Millisecond,
		DrainTimeout:     time.Second,
		RingPollInterval: 5 * time.Millisecond,
		OnRing: func(r Ring) {
			n, _ := got.LoadOrStore(r.Epoch, new(atomic64))
			n.(*atomic64).add(1)
			deliveries.add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	waitFor(t, func() bool { return deliveries.load() >= 1 }, "handshake ring delivery")
	if n, ok := got.Load(uint64(3)); !ok || n.(*atomic64).load() != 1 {
		t.Fatalf("epoch-3 ring not delivered exactly once at handshake")
	}

	// Same epoch keeps polling but must not re-deliver.
	time.Sleep(50 * time.Millisecond)
	if n, _ := got.Load(uint64(3)); n.(*atomic64).load() != 1 {
		t.Fatalf("unchanged epoch re-delivered %d times", n.(*atomic64).load())
	}

	// Advance the epoch; the next poll delivers the new ring once.
	mu.Lock()
	ring = testRing(4, "a:1", "b:2", "c:3")
	mu.Unlock()
	waitFor(t, func() bool {
		n, ok := got.Load(uint64(4))
		return ok && n.(*atomic64).load() >= 1
	}, "rebalanced ring delivery")
}

// Replay frames deduplicate via the configured callback and are
// accounted separately from fresh ship traffic.
func TestReplayOperationAccounting(t *testing.T) {
	store, shipped := logdb.NewStore(), &probe.MemorySink{}
	seen := make(map[uint64]bool)
	var mu sync.Mutex
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Sinks: []probe.Sink{shipped},
		Replay: func(recs []probe.Record) int {
			mu.Lock()
			defer mu.Unlock()
			accepted := 0
			for _, r := range recs {
				if seen[r.Seq] {
					continue
				}
				seen[r.Seq] = true
				store.Insert(r)
				accepted++
			}
			return accepted
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := transport.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	hello := encodeHello(Hello{Version: ProtocolVersion, Process: "replayer", ProcType: "x86"})
	if rep, err := client.Call(transport.Request{ObjectKey: ObjectKey, Operation: opHello, Body: hello}); err != nil || rep.Status != transport.StatusOK {
		t.Fatalf("handshake: %v %v", rep, err)
	}

	batch := encodeBatch([]probe.Record{testRecord("p", 1), testRecord("p", 2)})
	rep, err := client.Call(transport.Request{ObjectKey: ObjectKey, Operation: opReplay, Body: batch})
	if err != nil || rep.Status != transport.StatusOK {
		t.Fatalf("replay: %v %v", rep, err)
	}
	if n, err := decodeCount(rep.Body); err != nil || n != 2 {
		t.Fatalf("first replay accepted %d (%v), want 2", n, err)
	}
	// Replaying the same batch again must accept nothing.
	rep, err = client.Call(transport.Request{ObjectKey: ObjectKey, Operation: opReplay, Body: batch})
	if err != nil || rep.Status != transport.StatusOK {
		t.Fatalf("replay 2: %v %v", rep, err)
	}
	if n, _ := decodeCount(rep.Body); n != 0 {
		t.Fatalf("duplicate replay accepted %d, want 0", n)
	}
	st := srv.Stats()
	if st.Replayed != 2 || st.ReplayBatches != 2 {
		t.Fatalf("server replay stats = %+v", st)
	}
	if st.Records != 0 || st.Batches != 0 {
		t.Fatalf("replay leaked into fresh-ship accounting: %+v", st)
	}
	if store.Len() != 2 || shipped.Len() != 0 {
		t.Fatalf("store has %d records, want 2; the ship sink has %d, want 0", store.Len(), shipped.Len())
	}
}

// A server without a Replay callback rejects replay frames as bad; a
// server without a Ring refuses ring polls, which every shipping process
// sends, without counting them bad.
func TestClusterOpsRejectedWhenStandalone(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := transport.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if rep, err := client.Call(transport.Request{ObjectKey: ObjectKey, Operation: opRing}); err != nil || rep.Status != transport.StatusUserException {
		t.Fatalf("standalone server answered a ring poll with %v %v, want a user exception", rep, err)
	}
	if bad := srv.Stats().BadFrames; bad != 0 {
		t.Fatalf("ring poll counted as %d bad frame(s)", bad)
	}
	batch := encodeBatch([]probe.Record{testRecord("p", 1)})
	if rep, err := client.Call(transport.Request{ObjectKey: ObjectKey, Operation: opReplay, Body: batch}); err != nil || rep.Status == transport.StatusOK {
		t.Fatalf("standalone server accepted a replay: %v %v", rep, err)
	}
	if bad := srv.Stats().BadFrames; bad != 1 {
		t.Fatalf("replay frame counted as %d bad frame(s), want 1", bad)
	}
}

// Detach hands back exactly the records that never reached the wire, in
// order, without counting them dropped.
func TestDetachReturnsUndelivered(t *testing.T) {
	// No server: nothing ships, everything must come back.
	sh := fastShipperDrain(t, "127.0.0.1:1", "p1", 256, 50*time.Millisecond)
	const n = 100
	for i := 1; i <= n; i++ {
		sh.Append(testRecord("p1", uint64(i)))
	}
	recs := sh.Detach()
	if len(recs) != n {
		t.Fatalf("Detach returned %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d out of order: seq %d", i, r.Seq)
		}
	}
	st := sh.Stats()
	if st.Dropped != 0 {
		t.Fatalf("detached records counted dropped: %+v", st)
	}
	// Idempotent: a second Detach (or a Close) finds nothing.
	if again := sh.Detach(); again != nil {
		t.Fatalf("second Detach returned %d records", len(again))
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
}

// Detach with a live server returns only what was not acknowledged.
func TestDetachAfterDeliveryReturnsNothingExtra(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerConfig{Sinks: []probe.Sink{&probe.MemorySink{}}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sh := fastShipper(t, srv.Addr(), "p1", 256)
	const n = 50
	for i := 1; i <= n; i++ {
		sh.Append(testRecord("p1", uint64(i)))
	}
	waitFor(t, func() bool { return sh.Stats().Shipped == n }, "all records shipped")
	recs := sh.Detach()
	if shipped := sh.Stats().Shipped; int(shipped)+len(recs) != n {
		t.Fatalf("shipped %d + detached %d != appended %d", shipped, len(recs), n)
	}
}

// atomic64 is a tiny test counter (sync/atomic's Uint64 under a name
// that reads better in sync.Map values).
type atomic64 struct {
	mu sync.Mutex
	n  uint64
}

func (a *atomic64) add(d uint64) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic64) load() uint64 { a.mu.Lock(); defer a.mu.Unlock(); return a.n }

// The six control messages read bytes they did not write. Each round-trips;
// cut anywhere, or followed by a byte too many, each is an error, never a
// panic; and a ring whose member count is forged sizes nothing by it.
func TestControlDecodersRefuseHostileBytes(t *testing.T) {
	hello := Hello{Version: ProtocolVersion, Process: "p1", ProcType: "x86", DebugAddr: "127.0.0.1:6060"}
	reply := HelloReply{Version: ProtocolVersion, HasRing: true, Ring: testRing(7, "a:1", "b:2", "c:3")}
	final := ShipperFinal{Appended: 10, Dropped: 3, Shipped: 7}
	msgs := []struct {
		name   string
		body   []byte
		decode func([]byte) (any, error)
		want   any
	}{
		{"hello", encodeHello(hello), func(b []byte) (any, error) { return decodeHello(b) }, hello},
		{"hello reply", encodeHelloReply(reply), func(b []byte) (any, error) { return decodeHelloReply(b) }, reply},
		{"ring-less hello reply", encodeHelloReply(HelloReply{Version: ProtocolVersion}), func(b []byte) (any, error) { return decodeHelloReply(b) }, HelloReply{Version: ProtocolVersion}},
		{"ring", encodeRing(reply.Ring), func(b []byte) (any, error) { return decodeRing(b) }, reply.Ring},
		{"replay count", encodeCount(1 << 40), func(b []byte) (any, error) { return decodeCount(b) }, uint64(1 << 40)},
		{"stats", encodeFinal(final), func(b []byte) (any, error) { return decodeFinal(b) }, final},
		{"rate", encodeRate(0.125), func(b []byte) (any, error) { return decodeRate(b) }, 0.125},
	}
	for _, m := range msgs {
		if got, err := m.decode(m.body); err != nil || !reflect.DeepEqual(got, m.want) {
			t.Errorf("%s: round trip gives %+v, %v; want %+v", m.name, got, err, m.want)
		}
		for cut := 0; cut < len(m.body); cut++ {
			if got, err := m.decode(m.body[:cut]); err == nil {
				t.Errorf("%s cut at byte %d of %d decodes as %+v", m.name, cut, len(m.body), got)
			}
		}
		if got, err := m.decode(append(append([]byte(nil), m.body...), 0)); err == nil {
			t.Errorf("%s with a trailing byte decodes as %+v", m.name, got)
		}
	}

	// epoch, slots, a member count of 2^32-1, and 24 bytes behind it.
	forged := make([]byte, 40)
	binary.LittleEndian.PutUint32(forged[12:], 1<<32-1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := decodeRing(forged)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Errorf("ring claiming 2^32-1 members in 40 bytes decodes as %+v", r)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Errorf("forged member count allocated %d bytes", grew)
	}
	// A count the remaining bytes could hold one per byte, but not as members.
	binary.LittleEndian.PutUint32(forged[12:], 24)
	if r, err := decodeRing(forged); err == nil {
		t.Errorf("ring claiming 24 members in 24 bytes decodes as %+v", r)
	}
}
