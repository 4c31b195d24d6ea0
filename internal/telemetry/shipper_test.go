package telemetry

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"causeway/internal/ftl"
	"causeway/internal/probe"
	"causeway/internal/topology"
	"causeway/internal/transport"
	"causeway/internal/uuid"
)

func testProc(name string) topology.Process {
	return topology.Process{ID: name, Processor: topology.Processor{ID: name + "-cpu", Type: "x86"}}
}

func testRecord(proc string, seq uint64) probe.Record {
	return probe.Record{
		Kind: probe.KindEvent, Process: proc, ProcType: "x86",
		Chain: uuid.UUID{0: byte(seq)}, Seq: seq, Event: ftl.StubStart,
		Op: probe.OpID{Interface: "I", Operation: "op"},
	}
}

func fastShipper(t *testing.T, addr, proc string, buffer int) *ShipperSink {
	return fastShipperDrain(t, addr, proc, buffer, 3*time.Second)
}

func fastShipperDrain(t *testing.T, addr, proc string, buffer int, drain time.Duration) *ShipperSink {
	t.Helper()
	s, err := NewShipper(ShipperConfig{
		Addr:          addr,
		Process:       testProc(proc),
		BufferSize:    buffer,
		FlushInterval: 2 * time.Millisecond,
		BackoffMin:    5 * time.Millisecond,
		BackoffMax:    50 * time.Millisecond,
		DrainTimeout:  drain,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestShipperDeliversAllRecords(t *testing.T) {
	mem := &probe.MemorySink{}
	srv, err := Listen("127.0.0.1:0", ServerConfig{Sinks: []probe.Sink{mem}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sh := fastShipper(t, srv.Addr(), "p1", 4096)
	const n = 1000
	for i := 1; i <= n; i++ {
		sh.Append(testRecord("p1", uint64(i)))
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	st := sh.Stats()
	if st.Appended != n || st.Shipped != n || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want %d appended+shipped, 0 dropped", st, n)
	}
	if !connectsOnce(st) {
		t.Fatalf("connects = %d, want 1", st.Connects)
	}
	if mem.Len() != n {
		t.Fatalf("server sink holds %d records, want %d", mem.Len(), n)
	}
	if ss := srv.Stats(); ss.Records != n || ss.Peers != 1 || ss.BadFrames != 0 {
		t.Fatalf("server stats = %+v", ss)
	}
	peers := srv.Peers()
	if len(peers) != 1 || peers[0].Process != "p1" || peers[0].ProcType != "x86" {
		t.Fatalf("peers = %+v", peers)
	}
}

func connectsOnce(st ShipperStats) bool { return st.Connects == 1 && st.Reconnects == 0 }

func TestShipperNeverBlocksWithoutServer(t *testing.T) {
	// Dial a port nothing listens on: every connect attempt fails, the ring
	// fills, and the drop-oldest policy takes over. Append must stay O(1).
	sh := fastShipperDrain(t, "127.0.0.1:1", "p1", 64, 50*time.Millisecond)

	const n = 50000
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				sh.Append(testRecord(fmt.Sprintf("p%d", g), uint64(i+1)))
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	st := sh.Stats()
	if st.Appended != n {
		t.Fatalf("appended = %d, want %d", st.Appended, n)
	}
	if st.Shipped != 0 {
		t.Fatalf("shipped %d records with no server", st.Shipped)
	}
	// Conservation: every record is accounted for once the shipper closes.
	if st.Shipped+st.Dropped != st.Appended || st.Buffered != 0 {
		t.Fatalf("leaked records: %+v", st)
	}
	if st.Connected {
		t.Fatalf("claims connected with no server: %+v", st)
	}
	// 50k non-blocking appends should take far under a second even on a
	// loaded CI box; a blocking hot path would sit in dial timeouts here.
	if elapsed > 5*time.Second {
		t.Fatalf("append path blocked: %d appends took %v", n, elapsed)
	}
}

func TestShipperDropOldestBounded(t *testing.T) {
	sh := fastShipperDrain(t, "127.0.0.1:1", "p1", 8, 20*time.Millisecond)
	for i := 1; i <= 100; i++ {
		sh.Append(testRecord("p1", uint64(i)))
	}
	if b := sh.Stats().Buffered; b > 8 {
		t.Fatalf("ring grew past its bound: %d", b)
	}
	if d := sh.Stats().Dropped; d < 92-8 { // background may briefly drain a few
		t.Fatalf("dropped = %d, want >= %d", d, 92-8)
	}
	sh.Close()
}

func TestShipperReconnectsAfterServerRestart(t *testing.T) {
	mem1 := &probe.MemorySink{}
	srv, err := Listen("127.0.0.1:0", ServerConfig{Sinks: []probe.Sink{mem1}})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	sh := fastShipper(t, addr, "p1", 4096)
	sh.Append(testRecord("p1", 1))
	waitFor(t, func() bool { return mem1.Len() == 1 }, "first record shipped")

	// Kill the server mid-stream. A write into the dying socket can still
	// succeed locally, so keep the traffic flowing until the shipper
	// observes the failure and drops the session.
	srv.Close()
	seq := uint64(2)
	waitForDriving(t, func() {
		sh.Append(testRecord("p1", seq))
		seq++
	}, func() bool { return !sh.Stats().Connected }, "disconnect noticed")

	// Restart on the same address; the shipper reconnects and traffic
	// flows into the new server.
	mem2 := &probe.MemorySink{}
	srv2, err := Listen(addr, ServerConfig{Sinks: []probe.Sink{mem2}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	waitForDriving(t, func() {
		sh.Append(testRecord("p1", seq))
		seq++
	}, func() bool { return mem2.Len() >= 1 }, "records delivered after reconnect")

	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	st := sh.Stats()
	if st.Reconnects < 1 {
		t.Fatalf("reconnects = %d, want >= 1 (stats %+v)", st.Reconnects, st)
	}
	if st.Shipped+st.Dropped != st.Appended {
		t.Fatalf("leaked records: %+v", st)
	}
}

// waitForDriving polls cond while repeatedly invoking drive — for
// conditions (like disconnect detection) that only advance under traffic.
func waitForDriving(t *testing.T, drive func(), cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		drive()
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestServerRejectsBadHandshake(t *testing.T) {
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

	hello := encodeHello(Hello{Version: 99, Process: "p", ProcType: "x"})
	rep, err := client.Call(transport.Request{ObjectKey: ObjectKey, Operation: opHello, Body: hello})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != transport.StatusSystemException {
		t.Fatalf("version-99 handshake accepted: %v", rep.Status)
	}
	rep, err = client.Call(transport.Request{ObjectKey: "wrong", Operation: opHello, Body: hello})
	if err != nil || rep.Status == transport.StatusOK {
		t.Fatalf("wrong object key accepted: %v, %v", rep.Status, err)
	}
	rep, err = client.Call(transport.Request{ObjectKey: ObjectKey, Operation: "bogus"})
	if err != nil || rep.Status == transport.StatusOK {
		t.Fatalf("bogus operation accepted: %v, %v", rep.Status, err)
	}
	if bf := srv.Stats().BadFrames; bf != 3 {
		t.Fatalf("bad frames = %d, want 3", bf)
	}
}

func TestServerToleratesMidStreamDisconnect(t *testing.T) {
	mem := &probe.MemorySink{}
	srv, err := Listen("127.0.0.1:0", ServerConfig{Sinks: []probe.Sink{mem}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A raw client that handshakes, ships one batch, and vanishes without
	// ceremony — a crashed process.
	client, err := transport.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	hello := encodeHello(Hello{Version: ProtocolVersion, Process: "crasher", ProcType: "x86"})
	if rep, err := client.Call(transport.Request{ObjectKey: ObjectKey, Operation: opHello, Body: hello}); err != nil || rep.Status != transport.StatusOK {
		t.Fatalf("handshake: %v %v", rep.Status, err)
	}
	batch := encodeBatch([]probe.Record{testRecord("crasher", 1)})
	if err := client.Post(transport.Request{ObjectKey: ObjectKey, Operation: opShip, Body: batch}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return mem.Len() == 1 }, "crasher's batch ingested")
	client.Close() // abrupt disconnect

	// A healthy shipper on a fresh connection is unaffected.
	sh := fastShipper(t, srv.Addr(), "survivor", 1024)
	sh.Append(testRecord("survivor", 1))
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	if mem.Len() != 2 {
		t.Fatalf("server sink holds %d records, want 2", mem.Len())
	}
	if ss := srv.Stats(); ss.Peers != 2 {
		t.Fatalf("peers = %d, want 2", ss.Peers)
	}
}

// TestAppendAllocFree pins the backpressure-path property: offering a record
// to the ring is allocation-free in steady state, so a probe firing while
// the collection server is down costs no more than a probe firing while it
// is up. The shipper is parked in a long reconnect backoff during the
// measurement so the background loop cannot contribute mallocs of its own.
func TestAppendAllocFree(t *testing.T) {
	dialErr := fmt.Errorf("collector down")
	s, err := NewShipper(ShipperConfig{
		Addr:         "127.0.0.1:1",
		Process:      testProc("alloc"),
		BufferSize:   1 << 15,
		BackoffMin:   time.Hour,
		BackoffMax:   time.Hour,
		DrainTimeout: 10 * time.Millisecond,
		Dial:         func(string) (transport.Client, error) { return nil, dialErr },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Let the loop fail its first dial and settle into the hour-long backoff.
	time.Sleep(20 * time.Millisecond)
	rec := testRecord("alloc", 1)
	if a := testing.AllocsPerRun(500, func() { s.Append(rec) }); a != 0 {
		t.Fatalf("Append allocates %v per record, want 0", a)
	}
}

// applyDefaults fills what is unset and keeps what is set: a BackoffMax
// below BackoffMin is raised to it, never replaced by the default.
func TestShipperConfigDefaults(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		name             string
		min, max         time.Duration
		wantMin, wantMax time.Duration
	}{
		{"both unset", 0, 0, 50 * ms, 5 * time.Second},
		{"both set", 10 * ms, 20 * ms, 10 * ms, 20 * ms},
		{"max below min", 100 * ms, 60 * ms, 100 * ms, 100 * ms},
		{"max below the default min", 0, 20 * ms, 50 * ms, 50 * ms},
		{"min above the default max", 10 * time.Second, 0, 10 * time.Second, 10 * time.Second},
		{"max negative", 100 * ms, -1, 100 * ms, 5 * time.Second},
	} {
		c := ShipperConfig{Addr: "127.0.0.1:1", BackoffMin: tc.min, BackoffMax: tc.max}
		if err := c.applyDefaults(); err != nil {
			t.Fatal(err)
		}
		if c.BackoffMin != tc.wantMin || c.BackoffMax != tc.wantMax {
			t.Errorf("%s: backoff [%v, %v] becomes [%v, %v], want [%v, %v]",
				tc.name, tc.min, tc.max, c.BackoffMin, c.BackoffMax, tc.wantMin, tc.wantMax)
		}
	}
	c := ShipperConfig{Addr: "127.0.0.1:1", BufferSize: 64, BatchSize: 1000}
	if err := c.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	if c.BatchSize != 64 || c.FlushInterval != ms || c.DrainTimeout != 2*time.Second || c.PollInterval != time.Second || c.Dial == nil {
		t.Errorf("defaults: %+v", c)
	}
	if err := (&ShipperConfig{}).applyDefaults(); err == nil {
		t.Error("a config without Addr accepted")
	}
}

// A collector that answers the handshake but never a ship frame — a wedged
// journal, a quiesce that never ends — cannot hold Close past its
// DrainTimeout: the loop is blocked in a ship call when Close begins, and
// Close still returns soon after the budget, with every record it could not
// ship counted as dropped.
func TestCloseBoundedByWedgedCollector(t *testing.T) {
	tsrv, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tsrv.Close()
	var ships atomic64
	if err := tsrv.Serve(func(conn transport.ConnID, req transport.Request, respond transport.Responder) {
		switch req.Operation {
		case opHello:
			respond(transport.Reply{Status: transport.StatusOK, Body: encodeHelloReply(HelloReply{Version: ProtocolVersion})})
		case opShip:
			ships.add(1) // and never answered
		default:
			if !req.Oneway {
				respond(transport.Reply{Status: transport.StatusOK})
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	sh := fastShipperDrain(t, tsrv.Addr(), "p1", 64, 100*time.Millisecond)
	const n = 40
	for i := 1; i <= n; i++ {
		sh.Append(testRecord("p1", uint64(i)))
	}
	waitFor(t, func() bool { return ships.load() > 0 }, "a ship frame in flight")
	start := time.Now()
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v against a collector that never answers, DrainTimeout 100ms", took)
	}
	st := sh.Stats()
	if st.Appended != n || st.Shipped != 0 || st.Dropped != n || st.Buffered != 0 {
		t.Fatalf("account after Close: %+v, want %d appended, all dropped", st, n)
	}
}
