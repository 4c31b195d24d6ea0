package telemetry

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"causeway/internal/ftl"
	"causeway/internal/probe"
	"causeway/internal/tracestore"
	"causeway/internal/transport"
	"causeway/internal/uuid"
	"causeway/internal/workload"
)

// codecRecords covers every field of a record: both kinds, each flag bit
// alone and all together, zero and non-zero wall times, CPU windows,
// Semantics, empty identity strings, and records whose kind and blocks
// disagree (an event with link fields, a link with event fields) — the
// blocks follow the fields, not the kind. Every event has its own chain so
// a store can hand it back alone.
func codecRecords() []probe.Record {
	chain := func(n byte) uuid.UUID { return uuid.UUID{0: 0xc0, 15: n} }
	at := func(ns int64) time.Time { return time.Unix(0, ns) }
	op := probe.OpID{Component: "printer", Interface: "Spooler", Operation: "enqueue", Object: "spool#1"}
	return []probe.Record{
		{Kind: probe.KindEvent, Process: "p1", ProcType: "x86", Thread: 7, Op: op, Chain: chain(1), Event: ftl.StubStart, Seq: 1},
		{Kind: probe.KindEvent, Process: "p1", ProcType: "x86", Thread: 7, Op: op, Chain: chain(2), Event: ftl.SkelStart, Seq: 2, Oneway: true},
		{Kind: probe.KindEvent, Process: "p1", ProcType: "x86", Thread: 7, Op: op, Chain: chain(3), Event: ftl.SkelEnd, Seq: 3, Collocated: true},
		{Kind: probe.KindEvent, Process: "p2", ProcType: "pa-risc", Thread: 1 << 63, Op: op, Chain: chain(4), Event: ftl.StubEnd, Seq: 4,
			LatencyArmed: true, WallStart: at(1_700_000_000_123_456_789), WallEnd: at(1_700_000_000_123_999_000)},
		{Kind: probe.KindEvent, Process: "p2", ProcType: "pa-risc", Thread: 2, Op: op, Chain: chain(5), Event: ftl.SkelStart, Seq: 4096,
			CPUArmed: true, CPUStart: 12 * time.Millisecond, CPUEnd: 13 * time.Millisecond, Semantics: "in: job=42 pages=3"},
		{Kind: probe.KindEvent, Process: "p2", ProcType: "pa-risc", Thread: 2, Op: op, Chain: chain(6), Event: ftl.SkelEnd, Seq: 5,
			Oneway: true, Collocated: true, LatencyArmed: true, CPUArmed: true,
			WallStart: at(-5), WallEnd: at(1), CPUStart: -1, CPUEnd: 1, Semantics: "raised: OutOfPaper"},
		// Only the end of the wall window set; empty identity strings.
		{Kind: probe.KindEvent, Chain: chain(7), Event: ftl.StubStart, Seq: 1, WallEnd: at(99)},
		{Kind: probe.KindLink, Process: "p1", ProcType: "x86", Thread: 7, Op: op,
			LinkParent: chain(1), LinkParentSeq: 9, LinkChild: chain(8)},
		// Kind and blocks disagree.
		{Kind: probe.KindEvent, Process: "p1", ProcType: "x86", Op: op, Chain: chain(9), Event: ftl.StubStart, Seq: 1,
			LinkParent: chain(10), LinkParentSeq: 1, LinkChild: chain(11)},
		{Kind: probe.KindLink, Process: "p3", ProcType: "vxworks-ppc", Op: op, Chain: chain(12), Seq: 3, Event: ftl.StubEnd,
			WallStart: at(5), LinkParent: chain(12), LinkChild: chain(13)},
	}
}

// The frame codec returns every field as it was given, and returns exactly
// what the trace store's payload codec returns for the same record — the
// two formats share their field conventions, so a record that reaches the
// store over the wire equals one inserted directly.
func TestBatchCodecRoundTrip(t *testing.T) {
	recs := codecRecords()
	got, err := decodeBatch(encodeBatch(recs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !reflect.DeepEqual(got[i], recs[i]) {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, got[i], recs[i])
		}
	}

	store, err := tracestore.Open(t.TempDir(), tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	store.Insert(recs...)
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	links := store.Links()
	for i, r := range got {
		var stored []probe.Record
		if r.Kind == probe.KindEvent {
			stored = store.Events(r.Chain)
		} else {
			for _, l := range links {
				if l.LinkChild == r.LinkChild {
					stored = append(stored, l)
				}
			}
		}
		if len(stored) != 1 || !reflect.DeepEqual(stored[0], r) {
			t.Errorf("record %d: store codec returns %+v, frame codec %+v", i, stored, r)
		}
	}

	// An empty batch is a valid frame.
	if none, err := decodeBatch(encodeBatch(nil)); err != nil || len(none) != 0 {
		t.Fatalf("empty batch: %v, %d records", err, len(none))
	}
}

// Identity strings travel once per frame, resolve to one shared string per
// connection, and never alias the frame; Semantics stays out of both the
// table and the intern map.
func TestBatchCodecStringTableAndInterning(t *testing.T) {
	recs := make([]probe.Record, 64)
	for i := range recs {
		recs[i] = testRecord("proc-with-a-long-name", uint64(i+1))
		recs[i].Semantics = "unique-semantics-payload"
	}
	frame := encodeBatch(recs)
	if n := strings.Count(string(frame), "proc-with-a-long-name"); n != 1 {
		t.Fatalf("identity string appears %d times in the frame, want 1", n)
	}
	if n := strings.Count(string(frame), "unique-semantics-payload"); n != len(recs) {
		t.Fatalf("semantics appears %d times in the frame, want inline in all %d records", n, len(recs))
	}

	var d batchDecoder
	first, err := d.decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	second, err := d.decode(append([]byte(nil), frame...))
	if err != nil {
		t.Fatal(err)
	}
	shared := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	if !shared(first[0].Process, first[63].Process) || !shared(first[0].Process, second[0].Process) {
		t.Fatal("a connection's records do not share one Process string")
	}
	if _, ok := d.interned["unique-semantics-payload"]; ok {
		t.Fatal("Semantics entered the intern map")
	}
	// Scribbling over the frame must not reach a decoded record.
	for i := range frame {
		frame[i] = 'x'
	}
	if first[0].Process != "proc-with-a-long-name" || first[0].Semantics != "unique-semantics-payload" || first[0].Op.Operation != "op" {
		t.Fatalf("decoded record aliases the frame buffer: %+v", first[0])
	}
}

// A peer inventing identities cannot grow a connection's intern map past
// its cap, and oversized strings never enter it.
func TestBatchDecoderInternBound(t *testing.T) {
	var d batchDecoder
	for f := 0; f < 2*maxInternedStrings/100; f++ {
		recs := make([]probe.Record, 100)
		for i := range recs {
			recs[i] = testRecord("p", uint64(i+1))
			recs[i].Op.Object = "obj-" + uuid.UUID{0: byte(f), 1: byte(i)}.String()
		}
		if _, err := d.decode(encodeBatch(recs)); err != nil {
			t.Fatal(err)
		}
	}
	if len(d.interned) != maxInternedStrings {
		t.Fatalf("intern map holds %d strings, want the cap %d", len(d.interned), maxInternedStrings)
	}
	d = batchDecoder{}
	huge := testRecord(strings.Repeat("p", maxInternedLen+1), 1)
	if _, err := d.decode(encodeBatch([]probe.Record{huge})); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.interned[huge.Process]; ok {
		t.Fatal("oversized string interned")
	}
	if cap(d.table) == 0 {
		t.Fatal("table scratch not kept")
	}
	for _, s := range d.table[:cap(d.table)] {
		if s != "" {
			t.Fatal("table scratch still references a frame's strings")
		}
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

// Steady state: encoding a frame allocates nothing, and neither does
// decoding a frame whose vocabulary the connection has seen — the records
// land in the connection's slab (the generated records carry no Semantics,
// the one string a record does not share).
func TestBatchCodecAllocCeiling(t *testing.T) {
	frames := workloadFrames(t, 256)
	var enc batchEncoder
	var dec batchDecoder
	bodies := make([][]byte, len(frames))
	for i, f := range frames {
		bodies[i] = append([]byte(nil), enc.encode(f)...)
		if _, err := dec.decode(bodies[i]); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	if a := testing.AllocsPerRun(200, func() {
		enc.encode(frames[i%len(frames)])
		i++
	}); a != 0 {
		t.Errorf("encode allocates %v per frame in steady state, want 0", a)
	}
	i = 0
	if a := testing.AllocsPerRun(200, func() {
		if _, err := dec.decode(bodies[i%len(bodies)]); err != nil {
			t.Fatal(err)
		}
		i++
	}); a != 0 {
		t.Errorf("decode allocates %v per 256-record frame of a seen vocabulary, want 0", a)
	}
}

// A decoder hands every frame out in the same slab, and a frame shows
// nothing of the one before it: not in the fields a shorter record leaves
// out, not past its end. A frame too large to keep gets a slab of its own.
func TestDecoderReusesSlab(t *testing.T) {
	frameA := codecRecords()  // event blocks, link blocks, both, neither flag clear
	frameB := []probe.Record{ // neither block: only identity, thread and flags travel
		{Kind: probe.KindEvent, Process: "p9", Thread: 3},
		{Kind: probe.KindLink, ProcType: "sparc", Oneway: true},
	}
	var d batchDecoder
	a, err := d.decode(encodeBatch(frameA))
	if err != nil || !reflect.DeepEqual(a, frameA) {
		t.Fatalf("frame A: %v %+v", err, a)
	}
	slab := &a[0]
	b, err := d.decode(encodeBatch(frameB))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := decodeBatch(encodeBatch(frameB))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, fresh) || !reflect.DeepEqual(b, frameB) {
		t.Fatalf("frame B through a used decoder:\n got %+v\nwant %+v", b, fresh)
	}
	if &b[0] != slab {
		t.Fatal("second frame did not reuse the first frame's slab")
	}

	big := make([]probe.Record, maxSlabRecords+1)
	for i := range big {
		big[i] = probe.Record{Kind: probe.KindEvent, Process: "big", Seq: uint64(i + 1)}
	}
	got, err := d.decode(encodeBatch(big))
	if err != nil || len(got) != len(big) || got[len(got)-1].Seq != uint64(len(big)) {
		t.Fatalf("over-cap frame: %v, %d records", err, len(got))
	}
	if cap(d.slab) > maxSlabRecords {
		t.Fatalf("decoder keeps a slab of %d records, cap %d", cap(d.slab), maxSlabRecords)
	}
	if b, err = d.decode(encodeBatch(frameB)); err != nil || &b[0] != slab || !reflect.DeepEqual(b, frameB) {
		t.Fatalf("frame after the over-cap one: %v, reused=%v, %+v", err, err == nil && &b[0] == slab, b)
	}
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
	srv, err := Listen("127.0.0.1:0", ServerConfig{Store: store, Sinks: []probe.Sink{plain, batched}})
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
			body, err := encodeHello(Hello{Version: ProtocolVersion, Process: "p", ProcType: "t"})
			if err != nil {
				t.Fatal(err)
			}
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

// corruptions derives the malformed frames the fuzz corpus seeds from a
// valid one: cut inside every class of field, and each length or index
// field lying about what follows it.
func corruptions(valid []byte, recs []probe.Record) map[string][]byte {
	le := binary.LittleEndian
	clone := func() []byte { return append([]byte(nil), valid...) }
	// Walk the table to find where the record section starts.
	off := 4
	for i := uint32(0); i < le.Uint32(valid); i++ {
		off += 4 + int(le.Uint32(valid[off:]))
	}
	recordCount := off
	firstRecord := off + 4
	semLen := firstRecord + 3 + identityStrings*4 + 8
	out := map[string][]byte{
		"cut-in-table-count":   valid[:2],
		"cut-in-table-string":  valid[:4+4+1],
		"cut-in-record-count":  valid[:recordCount+2],
		"cut-in-record-header": valid[:firstRecord+2],
		"cut-in-indexes":       valid[:firstRecord+3+5],
		"cut-in-thread":        valid[:firstRecord+3+identityStrings*4+3],
		"cut-in-semantics":     valid[:semLen+4+1],
		"cut-in-event-block":   valid[:semLen+4+len(recs[0].Semantics)+20],
		"cut-in-link-block":    valid[:len(valid)-7],
		"trailing-byte":        append(clone(), 0),
	}
	b := clone()
	le.PutUint32(b, 1<<30)
	out["table-count-past-end"] = b
	b = clone()
	le.PutUint32(b[4:], 1<<30)
	out["table-string-past-end"] = b
	b = clone()
	le.PutUint32(b[recordCount:], 1<<30)
	out["record-count-past-end"] = b
	b = clone()
	le.PutUint32(b[firstRecord+3:], le.Uint32(valid))
	out["index-out-of-range"] = b
	b = clone()
	le.PutUint32(b[semLen:], 1<<31)
	out["semantics-past-end"] = b
	b = clone()
	b[firstRecord] = 9
	out["bad-kind"] = b
	b = clone()
	b[firstRecord+1] |= 0x80
	out["bad-flags"] = b
	return out
}

// fuzzSeedRecords is the valid frame the corpus is derived from: an event
// with Semantics first (so every field class has a known offset), a link
// last.
func fuzzSeedRecords() []probe.Record {
	all := codecRecords()
	return []probe.Record{all[4], all[3], all[7]}
}

// Every derived malformation is refused with the codec's own error — the
// counts that claim a gigabyte included, which would not come back at all
// if anything were sized by them — and is checked in as a fuzz seed.
// UPDATE_FUZZ_CORPUS=1 rewrites the seeds after a layout change.
func TestBatchDecodeRejectsMalformedFrames(t *testing.T) {
	recs := fuzzSeedRecords()
	valid := encodeBatch(recs)
	if _, err := decodeBatch(valid); err != nil {
		t.Fatal(err)
	}
	seeds := corruptions(valid, recs)
	for name, body := range seeds {
		got, err := decodeBatch(body)
		if err == nil {
			t.Errorf("%s: decoded %d records from a malformed frame", name, len(got))
		} else if !strings.HasPrefix(err.Error(), "telemetry: decode batch: ") {
			t.Errorf("%s: error %q lacks the codec's prefix", name, err)
		}
	}
	seeds["valid"] = valid
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeBatch")
	for name, body := range seeds {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", body)
		path := filepath.Join(dir, name)
		if os.Getenv("UPDATE_FUZZ_CORPUS") != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if have, err := os.ReadFile(path); err != nil || string(have) != want {
			t.Errorf("fuzz seed %s is missing or stale (%v); rerun with UPDATE_FUZZ_CORPUS=1", path, err)
		}
	}
}

// FuzzDecodeBatch: error or value, never a panic, never more records than
// the bytes could hold; whatever decodes survives a re-encode unchanged, and
// a decoder that has a frame behind it (a slab to reuse, strings interned)
// answers exactly as a fresh one does.
// Seeds are checked in under testdata/fuzz/FuzzDecodeBatch (the frames
// corruptions derives); the valid frame is added here too so the fuzzer
// keeps a live starting point if the layout moves.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(encodeBatch(fuzzSeedRecords()))
	f.Add(encodeBatch(codecRecords()))
	f.Fuzz(func(t *testing.T, body []byte) {
		var d batchDecoder
		recs, err := d.decode(body)
		if err != nil {
			if recs != nil {
				t.Fatalf("error %v with %d records", err, len(recs))
			}
			checkUsedDecoder(t, body, nil, true)
			return
		}
		if len(recs) > len(body)/minRecordSize {
			t.Fatalf("%d records out of %d bytes", len(recs), len(body))
		}
		checkUsedDecoder(t, body, recs, false)
		again, err := decodeBatch(encodeBatch(recs))
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatal("records change across a re-encode")
		}
	})
}

// checkUsedDecoder decodes body with a decoder that has already decoded a
// frame using every field, and requires what a fresh decoder gave: want, or
// an error.
func checkUsedDecoder(t *testing.T, body []byte, want []probe.Record, wantErr bool) {
	t.Helper()
	var used batchDecoder
	if _, err := used.decode(encodeBatch(codecRecords())); err != nil {
		t.Fatal(err)
	}
	got, err := used.decode(body)
	if (err != nil) != wantErr || len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("used decoder: %v, %d records; fresh decoder: error=%v, %d records", err, len(got), wantErr, len(want))
	}
}

// BenchmarkShipFrameCodec times the two halves of a ship frame's codec on
// 256-record frames of a generated run. One benchmark op is one RECORD, so
// ns/op and allocs/op read per record, comparable with the per-record rows
// of the ingest benches.
func BenchmarkShipFrameCodec(b *testing.B) {
	const size = 256
	frames := workloadFrames(b, size)
	var enc batchEncoder
	bodies := make([][]byte, len(frames))
	for i, f := range frames {
		bodies[i] = append([]byte(nil), enc.encode(f)...)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for done := 0; done < b.N; done += size {
			enc.encode(frames[(done/size)%len(frames)])
		}
	})
	b.Run("decode", func(b *testing.B) {
		var dec batchDecoder
		b.ReportAllocs()
		for done := 0; done < b.N; done += size {
			if _, err := dec.decode(bodies[(done/size)%len(bodies)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
