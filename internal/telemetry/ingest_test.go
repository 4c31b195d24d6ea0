package telemetry

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"causeway/internal/ftl"
	"causeway/internal/probe"
	"causeway/internal/transport"
	"causeway/internal/uuid"
	"causeway/internal/workload"
)

var encodeBatch = probe.EncodeFrame

// decodeBatch is a one-off decode, as a connection's first frame sees it.
func decodeBatch(body []byte) ([]probe.Record, error) {
	var d probe.FrameDecoder
	return d.Decode(body)
}

// codecRecords is a frame of records of every shape the codec lays out
// differently — bare events, armed ones with their windows and Semantics, a
// link — so a slab slot written by one is overwritten by another.
func codecRecords() []probe.Record {
	chain := func(n byte) uuid.UUID { return uuid.UUID{0: 0xc0, 15: n} }
	op := probe.OpID{Component: "printer", Interface: "Spooler", Operation: "enqueue", Object: "spool#1"}
	return []probe.Record{
		{Kind: probe.KindEvent, Process: "p1", ProcType: "x86", Thread: 7, Op: op, Chain: chain(1), Event: ftl.StubStart, Seq: 1},
		{Kind: probe.KindEvent, Process: "p2", ProcType: "pa-risc", Thread: 2, Op: op, Chain: chain(2), Event: ftl.SkelEnd, Seq: 5,
			Oneway: true, Collocated: true, LatencyArmed: true, CPUArmed: true,
			WallStart: time.Unix(0, -5), WallEnd: time.Unix(0, 1), CPUStart: -1, CPUEnd: 1, Semantics: "raised: OutOfPaper"},
		{Kind: probe.KindEvent, Chain: chain(3), Event: ftl.StubStart, Seq: 1, WallEnd: time.Unix(0, 99)},
		{Kind: probe.KindLink, Process: "p1", ProcType: "x86", Thread: 7, Op: op,
			LinkParent: chain(1), LinkParentSeq: 9, LinkChild: chain(4)},
		{Kind: probe.KindEvent, Process: "p1", ProcType: "x86", Thread: 7, Op: op, Chain: chain(5), Event: ftl.SkelStart, Seq: 2, Oneway: true},
	}
}

// workloadFrames cuts a generated run's records into whole frames of size
// records each, per process — what a shipper's batches look like.
func workloadFrames(tb testing.TB, size int) [][]probe.Record {
	tb.Helper()
	sys, err := workload.Generate(workload.Config{
		Calls: 2000, Threads: 4, Processes: 3,
		Components: 8, Interfaces: 6, Methods: 15,
		OnewayPermille: 50, Seed: 13,
		Aspects: probe.AspectLatency,
	})
	if err != nil {
		tb.Fatal(err)
	}
	procs := make([]string, 0, len(sys.Sinks))
	for p := range sys.Sinks {
		procs = append(procs, p)
	}
	sort.Strings(procs)
	var frames [][]probe.Record
	for _, p := range procs {
		recs := sys.Sinks[p].Snapshot()
		for len(recs) >= size {
			frames = append(frames, recs[:size])
			recs = recs[size:]
		}
	}
	if len(frames) < 4 {
		tb.Fatalf("workload yields %d frames of %d records", len(frames), size)
	}
	return frames
}

// sliceStore is a RecordStore that keeps what it is given, by value.
type sliceStore struct{ perRecordSink }

func (s *sliceStore) Insert(recs ...probe.Record) {
	s.mu.Lock()
	s.recs = append(s.recs, recs...)
	s.mu.Unlock()
}

// A per-record sink, a frame-at-a-time sink and a store behind one server
// all borrow the same slab; after a hundred frames of every size each holds
// exactly what was shipped. The race detector is what would catch a callee
// keeping the slab: the next frame's decode writes where it would read.
func TestServerFanOutBorrowsSlab(t *testing.T) {
	plain, batched, store := &perRecordSink{}, &batchRecordSink{}, &sliceStore{}
	srv, err := Listen("127.0.0.1:0", ServerConfig{Sinks: []probe.Sink{probe.StoreSink{Store: store}, plain, batched}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := transport.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var all, want []probe.Record
	for _, f := range workloadFrames(t, 256) {
		all = append(all, f...)
	}
	all = append(all, codecRecords()...)
	for i := 0; i < 100; i++ {
		// Sizes 1..100 and back down, so long frames are followed by short.
		n := 1 + (i*37)%100
		body := encodeBatch(all[(i*53)%(len(all)-n):][:n])
		frame, err := decodeBatch(body) // as a decoder with no slab to reuse sees it
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, frame...)
		rep, err := client.Call(transport.Request{ObjectKey: ObjectKey, Operation: opShip, Body: body})
		if err != nil || rep.Status != transport.StatusOK {
			t.Fatalf("ship %d: %v %+v", i, err, rep)
		}
	}
	for name, got := range map[string][]probe.Record{"Sink": plain.recs, "BatchSink": batched.recs, "Store": store.recs} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s holds %d records that are not the %d shipped", name, len(got), len(want))
		}
	}
}

// perRecordSink implements probe.Sink only.
type perRecordSink struct {
	mu   sync.Mutex
	recs []probe.Record
}

func (s *perRecordSink) Append(r probe.Record) {
	s.mu.Lock()
	s.recs = append(s.recs, r)
	s.mu.Unlock()
}

// batchRecordSink implements probe.BatchSink too and notes how it was fed.
type batchRecordSink struct {
	perRecordSink
	batches, singles int
}

func (s *batchRecordSink) Append(r probe.Record) {
	s.perRecordSink.Append(r)
	s.mu.Lock()
	s.singles++
	s.mu.Unlock()
}

func (s *batchRecordSink) AppendBatch(recs []probe.Record) {
	s.mu.Lock()
	s.recs = append(s.recs, recs...)
	s.batches++
	s.mu.Unlock()
}

// A sink that is only a probe.Sink behind the server receives the same
// records in the same order as one that takes whole frames.
func TestServerBatchSinkFallback(t *testing.T) {
	plain, batched := &perRecordSink{}, &batchRecordSink{}
	srv, err := Listen("127.0.0.1:0", ServerConfig{Sinks: []probe.Sink{plain, batched}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := transport.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	want := codecRecords()
	for _, frame := range [][]probe.Record{want[:3], want[3:4], want[4:]} {
		rep, err := client.Call(transport.Request{ObjectKey: ObjectKey, Operation: opShip, Body: encodeBatch(frame)})
		if err != nil || rep.Status != transport.StatusOK {
			t.Fatalf("ship: %v %+v", err, rep)
		}
	}
	if !reflect.DeepEqual(plain.recs, want) {
		t.Fatalf("Sink-only sink received %d records, not the %d shipped in order", len(plain.recs), len(want))
	}
	if !reflect.DeepEqual(batched.recs, plain.recs) {
		t.Fatal("BatchSink and Sink-only sinks disagree")
	}
	if batched.batches != 3 || batched.singles != 0 {
		t.Fatalf("BatchSink fed by %d batches and %d single appends, want 3 and 0", batched.batches, batched.singles)
	}
}

// A connection's decode state goes when the connection does; the ledger of
// one that shook hands stays.
func TestServerForgetsClosedConnections(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	held := func() (states, decoders int) {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for _, st := range srv.conns {
			if st.dec != nil {
				decoders++
			}
		}
		return len(srv.conns), decoders
	}
	for _, hello := range []bool{false, true} {
		client, err := transport.DialTCP(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if hello {
			body := encodeHello(Hello{Version: ProtocolVersion, Process: "p", ProcType: "t"})
			if rep, err := client.Call(transport.Request{ObjectKey: ObjectKey, Operation: opHello, Body: body}); err != nil || rep.Status != transport.StatusOK {
				t.Fatalf("hello: %v %+v", err, rep)
			}
		}
		if _, err := client.Call(transport.Request{ObjectKey: ObjectKey, Operation: opShip, Body: encodeBatch(codecRecords())}); err != nil {
			t.Fatal(err)
		}
		if _, decoders := held(); decoders != 1 {
			t.Fatalf("server holds %d decoders for one shipping connection", decoders)
		}
		client.Close()
		waitFor(t, func() bool { _, d := held(); return d == 0 }, "decoder dropped with its connection")
		want := 0
		if hello {
			want = 1
		}
		if states, _ := held(); states != want {
			t.Fatalf("hello=%v: %d connection states left after the close, want %d", hello, states, want)
		}
	}
	accts := srv.PeerAccounting()
	if len(accts) != 1 || accts[0].Peer.Process != "p" || accts[0].Batches != 1 || accts[0].Records != uint64(len(codecRecords())) {
		t.Fatalf("ledger after the closes: %+v", accts)
	}
}
