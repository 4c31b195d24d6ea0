package telemetry

import (
	"errors"
	"maps"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"causeway/internal/ftl"
	"causeway/internal/probe"
	"causeway/internal/streamrecon"
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

// compactSliceStore is a sliceStore with the compact door, which keeps the
// records it is given resolved.
type compactSliceStore struct{ sliceStore }

func (s *compactSliceStore) InsertCompacts(cs []probe.Compact, tab *probe.SymbolTable) {
	recs := make([]probe.Record, len(cs))
	for i := range cs {
		tab.Resolve(&recs[i], &cs[i])
	}
	s.Insert(recs...)
}

// frameRecords resolves f's records, as Decode gives them, through a
// symbol table of their own.
func frameRecords(f *probe.Frame) []probe.Record {
	tab := probe.NewSymbols(1).Table(0)
	var m probe.FrameRemap
	m.Reset(tab, f)
	out := make([]probe.Record, len(f.Records))
	links := f.Links
	for i := range f.Records {
		var c probe.Compact
		m.Convert(&c, f, i)
		tab.Resolve(&out[i], &c)
		if c.Kind == probe.KindLink {
			out[i].LinkParent, out[i].LinkParentSeq, out[i].LinkChild = links[0].Parent, links[0].ParentSeq, links[0].Child
			links = links[1:]
		}
	}
	return out
}

// A per-record sink, a frame sink and two chain tables — over a store with
// only the Record door and over one with the compact door — behind one
// server all borrow the connection's decode slabs and frame; after a
// hundred frames of every size the sinks hold exactly what was shipped, in
// order, and once the tables drain each store holds the same records. The
// race detector is what would catch a callee keeping a slab or the frame:
// the next frame's decode writes where it would read.
func TestServerFanOutBorrowsSlab(t *testing.T) {
	plain, framed, store, compacts := &perRecordSink{}, &frameRecordSink{}, &sliceStore{}, &compactSliceStore{}
	table, err := streamrecon.New(streamrecon.Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	compactTable, err := streamrecon.New(streamrecon.Config{Store: compacts})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Listen("127.0.0.1:0", ServerConfig{Sinks: []probe.Sink{table, plain, framed, compactTable}})
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
	srv.Quiesce(func() {}) // an acknowledged frame is applied after its reply
	for name, got := range map[string][]probe.Record{"Sink": plain.recs, "FrameSink": framed.recs} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s holds %d records that are not the %d shipped", name, len(got), len(want))
		}
	}
	table.FlushOpen()
	compactTable.FlushOpen()
	count := func(recs []probe.Record) map[probe.Record]int {
		m := make(map[probe.Record]int, len(recs))
		for _, r := range recs {
			m[r]++
		}
		return m
	}
	if !maps.Equal(count(store.recs), count(want)) {
		t.Errorf("the table's store holds %d records that are not the %d shipped", len(store.recs), len(want))
	}
	if !maps.Equal(count(compacts.recs), count(want)) {
		t.Errorf("the compact store holds %d records that are not the %d shipped", len(compacts.recs), len(want))
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

// frameRecordSink implements probe.FrameSink too, keeps each frame's
// records resolved, and notes how it was fed.
type frameRecordSink struct {
	perRecordSink
	frames, singles int
}

func (s *frameRecordSink) Append(r probe.Record) {
	s.perRecordSink.Append(r)
	s.mu.Lock()
	s.singles++
	s.mu.Unlock()
}

func (s *frameRecordSink) AppendFrame(f *probe.Frame) {
	recs := frameRecords(f)
	s.mu.Lock()
	s.recs = append(s.recs, recs...)
	s.frames++
	s.mu.Unlock()
}

// A sink that is only a probe.Sink behind the server receives the same
// records in the same order as one that takes whole frames.
func TestServerFrameSinkFallback(t *testing.T) {
	plain, framed := &perRecordSink{}, &frameRecordSink{}
	srv, err := Listen("127.0.0.1:0", ServerConfig{Sinks: []probe.Sink{plain, framed}})
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
	srv.Quiesce(func() {})
	if !reflect.DeepEqual(plain.recs, want) {
		t.Fatalf("Sink-only sink received %d records, not the %d shipped in order", len(plain.recs), len(want))
	}
	if !reflect.DeepEqual(framed.recs, plain.recs) {
		t.Fatal("FrameSink and Sink-only sinks disagree")
	}
	if framed.frames != 3 || framed.singles != 0 {
		t.Fatalf("FrameSink fed by %d frames and %d single appends, want 3 and 0", framed.frames, framed.singles)
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

// backlogSink is a sink that pushes back while full is set.
type backlogSink struct {
	perRecordSink
	full atomic.Bool
}

func (s *backlogSink) Backlogged() bool { return s.full.Load() }

// A backlogged sink's ship frames are refused before the journal sees
// them, and counted Refused, not BadFrames; a journal failure is a refusal
// too; a replay frame is taken whatever the sink says.
func TestServerRefusesShipFramesWhileBacklogged(t *testing.T) {
	sink := &backlogSink{}
	var journaled atomic.Int64
	var journalErr atomic.Pointer[error]
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Sinks: []probe.Sink{sink},
		Journal: func([]byte) error {
			journaled.Add(1)
			if e := journalErr.Load(); e != nil {
				return *e
			}
			return nil
		},
		Replay: func(recs []probe.Record) int { return len(recs) },
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
	send := func(op string, body []byte) transport.Status {
		t.Helper()
		rep, err := client.Call(transport.Request{ObjectKey: ObjectKey, Operation: op, Body: body})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Status
	}
	frame := encodeBatch(codecRecords())

	sink.full.Store(true)
	if st := send(opShip, frame); st != transport.StatusUserException {
		t.Fatalf("ship to a backlogged sink answered %v, want a refusal", st)
	}
	if st := send(opReplay, frame); st != transport.StatusOK {
		t.Fatalf("replay beside a backlogged sink answered %v", st)
	}
	if st := srv.Stats(); st.Refused != 1 || st.BadFrames != 0 || st.Records != 0 || st.Replayed != uint64(len(codecRecords())) || journaled.Load() != 1 {
		t.Fatalf("after a refused ship and a replay: %+v, %d frames journaled", st, journaled.Load())
	}

	sink.full.Store(false)
	failed := errors.New("disk full")
	journalErr.Store(&failed)
	if st := send(opShip, frame); st != transport.StatusUserException {
		t.Fatalf("ship the journal failed on answered %v, want a refusal", st)
	}
	journalErr.Store(nil)
	if st := send(opShip, []byte{1, 2, 3}); st != transport.StatusSystemException {
		t.Fatalf("a malformed ship frame answered %v", st)
	}
	if st := send(opShip, frame); st != transport.StatusOK {
		t.Fatalf("ship once the backlog cleared answered %v", st)
	}
	srv.Quiesce(func() {})
	if st := srv.Stats(); st.Refused != 2 || st.BadFrames != 1 || st.Records != uint64(len(codecRecords())) {
		t.Fatalf("after a journal refusal, a bad frame and an accepted one: %+v", st)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.recs) != len(codecRecords()) {
		t.Fatalf("the sink holds %d records, want one frame's %d", len(sink.recs), len(codecRecords()))
	}
}
