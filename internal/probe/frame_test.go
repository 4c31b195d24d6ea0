package probe

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"causeway/internal/ftl"
	"causeway/internal/uuid"
)

// decodeBatch is a one-off decode with no decoder state behind it.
func decodeBatch(body []byte) ([]Record, error) {
	var d FrameDecoder
	return d.Decode(body)
}

var encodeBatch = EncodeFrame

// frameRecord is a plain event record of process proc.
func frameRecord(proc string, seq uint64) Record {
	return Record{
		Kind: KindEvent, Process: proc, ProcType: "x86",
		Chain: uuid.UUID{0: byte(seq)}, Seq: seq, Event: ftl.StubStart,
		Op: OpID{Interface: "I", Operation: "op"},
	}
}

// codecRecords covers every field of a record: both kinds, each flag bit
// alone and all together, zero and non-zero wall times, CPU windows,
// Semantics, empty identity strings, and records whose kind and blocks
// disagree (an event with link fields, a link with event fields) — the
// blocks follow the fields, not the kind. Every event has its own chain so
// a store can hand it back alone.
func codecRecords() []Record {
	chain := func(n byte) uuid.UUID { return uuid.UUID{0: 0xc0, 15: n} }
	at := func(ns int64) time.Time { return time.Unix(0, ns) }
	op := OpID{Component: "printer", Interface: "Spooler", Operation: "enqueue", Object: "spool#1"}
	return []Record{
		{Kind: KindEvent, Process: "p1", ProcType: "x86", Thread: 7, Op: op, Chain: chain(1), Event: ftl.StubStart, Seq: 1},
		{Kind: KindEvent, Process: "p1", ProcType: "x86", Thread: 7, Op: op, Chain: chain(2), Event: ftl.SkelStart, Seq: 2, Oneway: true},
		{Kind: KindEvent, Process: "p1", ProcType: "x86", Thread: 7, Op: op, Chain: chain(3), Event: ftl.SkelEnd, Seq: 3, Collocated: true},
		{Kind: KindEvent, Process: "p2", ProcType: "pa-risc", Thread: 1 << 63, Op: op, Chain: chain(4), Event: ftl.StubEnd, Seq: 4,
			LatencyArmed: true, WallStart: at(1_700_000_000_123_456_789), WallEnd: at(1_700_000_000_123_999_000)},
		{Kind: KindEvent, Process: "p2", ProcType: "pa-risc", Thread: 2, Op: op, Chain: chain(5), Event: ftl.SkelStart, Seq: 4096,
			CPUArmed: true, CPUStart: 12 * time.Millisecond, CPUEnd: 13 * time.Millisecond, Semantics: "in: job=42 pages=3"},
		{Kind: KindEvent, Process: "p2", ProcType: "pa-risc", Thread: 2, Op: op, Chain: chain(6), Event: ftl.SkelEnd, Seq: 5,
			Oneway: true, Collocated: true, LatencyArmed: true, CPUArmed: true,
			WallStart: at(-5), WallEnd: at(1), CPUStart: -1, CPUEnd: 1, Semantics: "raised: OutOfPaper"},
		// Only the end of the wall window set; empty identity strings.
		{Kind: KindEvent, Chain: chain(7), Event: ftl.StubStart, Seq: 1, WallEnd: at(99)},
		{Kind: KindLink, Process: "p1", ProcType: "x86", Thread: 7, Op: op,
			LinkParent: chain(1), LinkParentSeq: 9, LinkChild: chain(8)},
		// Kind and blocks disagree.
		{Kind: KindEvent, Process: "p1", ProcType: "x86", Op: op, Chain: chain(9), Event: ftl.StubStart, Seq: 1,
			LinkParent: chain(10), LinkParentSeq: 1, LinkChild: chain(11)},
		{Kind: KindLink, Process: "p3", ProcType: "vxworks-ppc", Op: op, Chain: chain(12), Seq: 3, Event: ftl.StubEnd,
			WallStart: at(5), LinkParent: chain(12), LinkChild: chain(13)},
	}
}

// The frame codec returns every field as it was given
// (TestBatchCodecMatchesStoreCodec, in the external test package, holds it
// against what the trace store reads back).
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

	// An empty batch is a valid frame.
	if none, err := decodeBatch(encodeBatch(nil)); err != nil || len(none) != 0 {
		t.Fatalf("empty batch: %v, %d records", err, len(none))
	}
}

// Identity strings travel once per frame, resolve to one shared string per
// connection, and never alias the frame; Semantics stays out of both the
// table and the intern map.
func TestBatchCodecStringTableAndInterning(t *testing.T) {
	recs := make([]Record, 64)
	for i := range recs {
		recs[i] = frameRecord("proc-with-a-long-name", uint64(i+1))
		recs[i].Semantics = "unique-semantics-payload"
	}
	frame := encodeBatch(recs)
	if n := strings.Count(string(frame), "proc-with-a-long-name"); n != 1 {
		t.Fatalf("identity string appears %d times in the frame, want 1", n)
	}
	if n := strings.Count(string(frame), "unique-semantics-payload"); n != len(recs) {
		t.Fatalf("semantics appears %d times in the frame, want inline in all %d records", n, len(recs))
	}

	var d FrameDecoder
	first, err := d.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	second, err := d.Decode(append([]byte(nil), frame...))
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
	var d FrameDecoder
	for f := 0; f < 2*maxInternedStrings/100; f++ {
		recs := make([]Record, 100)
		for i := range recs {
			recs[i] = frameRecord("p", uint64(i+1))
			recs[i].Op.Object = "obj-" + uuid.UUID{0: byte(f), 1: byte(i)}.String()
		}
		if _, err := d.Decode(encodeBatch(recs)); err != nil {
			t.Fatal(err)
		}
	}
	if len(d.interned) != maxInternedStrings {
		t.Fatalf("intern map holds %d strings, want the cap %d", len(d.interned), maxInternedStrings)
	}
	d = FrameDecoder{}
	huge := frameRecord(strings.Repeat("p", maxInternedLen+1), 1)
	if _, err := d.Decode(encodeBatch([]Record{huge})); err != nil {
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

// An encoder used frame after frame writes the bytes a fresh one writes:
// for a frame that repeats some of the last frame's vocabulary, one that
// shares none of it, one whose strings the last frame had in another order,
// and the frames either side of each that passes one of the index bounds. An
// index from an earlier frame must never reach the table of a later one.
func TestReusedEncoderMatchesFresh(t *testing.T) {
	vocab := func(prefix string, n int) []Record {
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = frameRecord(fmt.Sprintf("%s-%d", prefix, i%5), uint64(i+1))
			recs[i].Op.Object = fmt.Sprintf("%s-obj-%d", prefix, i%3)
		}
		return recs
	}
	// Past the bound: every record brings six strings no other frame has.
	wide := make([]Record, maxEncoderStrings/identityStrings+1)
	for i := range wide {
		u := fmt.Sprintf("-%d", i)
		wide[i] = Record{Kind: KindEvent, Process: "wp" + u, ProcType: "wt" + u, Seq: uint64(i + 1),
			Op: OpID{Component: "wc" + u, Interface: "wi" + u, Operation: "wo" + u, Object: "wb" + u}}
	}
	// Past the byte bound: a few strings larger than it together.
	long := vocab("l", 4)
	for i := range long {
		long[i].Op.Object = strings.Repeat(fmt.Sprint(i), maxEncoderKeyBytes/3)
	}
	reversed := slices.Clone(vocab("a", 12))
	slices.Reverse(reversed)
	frames := []struct {
		name string
		recs []Record
	}{
		{"first", vocab("a", 12)},
		{"overlapping", append(vocab("a", 4), vocab("b", 8)...)},
		{"same strings, other order", reversed},
		{"disjoint", vocab("c", 9)},
		{"empty", nil},
		{"after empty", vocab("c", 2)},
		{"every field", codecRecords()},
		{"past the bound", wide},
		{"after the bound", vocab("a", 12)},
		{"past the byte bound", long},
		{"after the byte bound", vocab("l", 4)},
		{"one record", vocab("b", 1)},
	}
	var enc FrameEncoder
	for _, f := range frames {
		if got, want := enc.Encode(f.recs), EncodeFrame(f.recs); !bytes.Equal(got, want) {
			t.Fatalf("%s: a used encoder wrote %d bytes that differ from a fresh one's %d", f.name, len(got), len(want))
		}
	}
	if len(enc.ents) > maxEncoderStrings || enc.keyBytes > maxEncoderKeyBytes {
		t.Fatalf("index holds %d strings of %d bytes after passing its bounds of %d and %d",
			len(enc.ents), enc.keyBytes, maxEncoderStrings, maxEncoderKeyBytes)
	}
}

// A symbol table that has added more Semantics than any bound on its
// identity strings — a collector's generation past its rotation, whose held
// chains go on adding records — interns a string late, at an id past 64 Ki.
// EncodeCompacts of records naming it writes what Encode writes, and keeps
// its stamps: once warm, it allocates nothing a frame.
func TestEncodeCompactsLargeIdsAllocFree(t *testing.T) {
	tab := NewSymbols(1).Table(0)
	var c Compact
	for i := range 1<<16 + 100 {
		tab.Convert(&c, &Record{Kind: KindEvent, Process: "p", Semantics: fmt.Sprintf("in: job=%d", i)})
	}
	recs := codecRecords()[:7]
	for i := range recs {
		recs[i].Op.Object = fmt.Sprintf("late-%d", i%3)
	}
	cs := tab.AppendCompacts(nil, recs)
	if id := cs[0].Op.Object; id <= 1<<16 {
		t.Fatalf("late identity string has id %d, want one past 64 Ki", id)
	}
	var enc FrameEncoder
	if got, want := enc.EncodeCompacts(cs, tab), EncodeFrame(recs); !bytes.Equal(got, want) {
		t.Fatalf("EncodeCompacts wrote %d bytes that differ from Encode's %d", len(got), len(want))
	}
	if n := testing.AllocsPerRun(20, func() { enc.EncodeCompacts(cs, tab) }); n != 0 {
		t.Fatalf("EncodeCompacts of ids past 64 Ki: %.1f allocs a frame, want 0", n)
	}
}

// A decoder hands every frame out in the same slab, and a frame shows
// nothing of the one before it: not in the fields a shorter record leaves
// out, not past its end. A frame too large to keep gets a slab of its own.
func TestDecoderReusesSlab(t *testing.T) {
	frameA := codecRecords() // event blocks, link blocks, both, neither flag clear
	frameB := []Record{      // neither block: only identity, thread and flags travel
		{Kind: KindEvent, Process: "p9", Thread: 3},
		{Kind: KindLink, ProcType: "sparc", Oneway: true},
	}
	var d FrameDecoder
	a, err := d.Decode(encodeBatch(frameA))
	if err != nil || !reflect.DeepEqual(a, frameA) {
		t.Fatalf("frame A: %v %+v", err, a)
	}
	slab := &a[0]
	b, err := d.Decode(encodeBatch(frameB))
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

	big := make([]Record, maxSlabRecords+1)
	for i := range big {
		big[i] = Record{Kind: KindEvent, Process: "big", Seq: uint64(i + 1)}
	}
	got, err := d.Decode(encodeBatch(big))
	if err != nil || len(got) != len(big) || got[len(got)-1].Seq != uint64(len(big)) {
		t.Fatalf("over-cap frame: %v, %d records", err, len(got))
	}
	if cap(d.slab) > maxSlabRecords {
		t.Fatalf("decoder keeps a slab of %d records, cap %d", cap(d.slab), maxSlabRecords)
	}
	if b, err = d.Decode(encodeBatch(frameB)); err != nil || &b[0] != slab || !reflect.DeepEqual(b, frameB) {
		t.Fatalf("frame after the over-cap one: %v, reused=%v, %+v", err, err == nil && &b[0] == slab, b)
	}
}

// checkEntries requires ents to hold, field for field, what recs hold:
// every IndexEntry field against the Record field of its name, a wall time
// as its Unix nanoseconds or NoWallTime. A field IndexEntry gains is held
// to Record's without a change here, and one Record lacks fails.
func checkEntries(t *testing.T, ents []IndexEntry, recs []Record) {
	t.Helper()
	if len(ents) != len(recs) {
		t.Fatalf("%d index entries for %d records", len(ents), len(recs))
	}
	et := reflect.TypeOf(IndexEntry{})
	for i := range ents {
		e, r := reflect.ValueOf(ents[i]), reflect.ValueOf(recs[i])
		for f := 0; f < et.NumField(); f++ {
			name := et.Field(f).Name
			rf := r.FieldByName(name)
			if !rf.IsValid() {
				t.Fatalf("IndexEntry.%s has no Record field to match", name)
			}
			got, want := e.Field(f).Interface(), rf.Interface()
			if tm, ok := want.(time.Time); ok {
				want = NoWallTime
				if !tm.IsZero() {
					want = tm.UnixNano()
				}
			}
			if got != want {
				t.Fatalf("record %d: entry's %s = %v, the full decode's %v", i, name, got, want)
			}
		}
	}
}

// An IndexEntry holds no pointer: a slab of them is never scanned by the
// garbage collector, and keeps no frame's string reachable.
func TestIndexEntryHoldsNoPointer(t *testing.T) {
	var walk func(reflect.Type) bool
	walk = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint:
			return true
		case reflect.Array:
			return walk(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if !walk(ty.Field(i).Type) {
					return false
				}
			}
			return true
		}
		return false
	}
	if !walk(reflect.TypeOf(IndexEntry{})) {
		t.Fatal("IndexEntry holds a field that is, or contains, a pointer")
	}
}

// The index decode interns nothing for a frame of events and gives each
// record's entry, field for field what the full decode gives; a frame that
// holds a link decodes in full beside its entries.
// DecodeInto writes into the caller's array when the frame fits it and
// leaves the decoder's slab as it was; when it does not fit, it decodes
// into the slab, never past dst's capacity.
func TestDecodeIndexAndInto(t *testing.T) {
	events := codecRecords()[:7]
	for name, recs := range map[string][]Record{"events": events, "with a link": codecRecords()} {
		var d FrameDecoder
		ents, full, err := d.DecodeIndex(encodeBatch(recs))
		if err != nil {
			t.Fatalf("%s: DecodeIndex: %v", name, err)
		}
		checkEntries(t, ents, recs)
		withLink := name == "with a link"
		if withLink != (full != nil) || withLink && !reflect.DeepEqual(full, recs) {
			t.Fatalf("%s: DecodeIndex's records = %+v", name, full)
		}
		if interned := len(d.interned) > 0; interned != withLink {
			t.Fatalf("%s: the index decode interned %d strings", name, len(d.interned))
		}
	}
	frame := encodeBatch(events)
	var d FrameDecoder
	dst := make([]Record, len(events)+1)
	got, err := d.DecodeInto(frame, dst[:0:len(events)])
	if err != nil || &got[0] != &dst[0] || !reflect.DeepEqual(got, events) {
		t.Fatalf("DecodeInto a fitting dst: %v, in place %v", err, err == nil && &got[0] == &dst[0])
	}
	if d.slab != nil {
		t.Fatal("DecodeInto a fitting dst gave the decoder its slab")
	}
	sentinel := Record{Kind: KindEvent, Process: "neighbour"}
	dst[len(events)-1] = sentinel
	dst[len(events)] = sentinel
	got, err = d.DecodeInto(frame, dst[:0:len(events)-1])
	if err != nil || &got[0] == &dst[0] || !reflect.DeepEqual(got, events) {
		t.Fatalf("DecodeInto a short dst: %v, in place %v", err, err == nil && &got[0] == &dst[0])
	}
	if dst[len(events)-1] != sentinel || dst[len(events)] != sentinel {
		t.Fatal("DecodeInto wrote past dst's capacity")
	}
}

// Recovery indexes a segment's frames of events without a string: neither
// the identity strings nor Semantics are allocated, and the entries land in
// the decoder's slab.
func TestDecodeIndexAllocFree(t *testing.T) {
	frame := encodeBatch(codecRecords()[:7])
	var d FrameDecoder
	if n := testing.AllocsPerRun(100, func() { d.DecodeIndex(frame) }); n != 0 {
		t.Fatalf("DecodeIndex of a frame of events allocates %v times", n)
	}
}

// A full decode into a dst that fits, of a vocabulary the decoder has
// seen, allocates each non-empty Semantics and nothing else: the identity
// strings come from the intern map, the records land in dst.
func TestDecodeIntoAllocFreeBeyondSemantics(t *testing.T) {
	recs := codecRecords()[:7]
	semantics := 0
	for _, r := range recs {
		if r.Semantics != "" {
			semantics++
		}
	}
	frame := encodeBatch(recs)
	dst := make([]Record, len(recs))
	var d FrameDecoder
	if n := testing.AllocsPerRun(100, func() { d.DecodeInto(frame, dst[:0]) }); n != float64(semantics) {
		t.Fatalf("DecodeInto a fitting dst allocates %v times, want %d (one per non-empty Semantics)", n, semantics)
	}
}

// corruptions derives the malformed frames the fuzz corpus seeds from a
// valid one: cut inside every class of field, and each length or index
// field lying about what follows it.
func corruptions(valid []byte, recs []Record) map[string][]byte {
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
func fuzzSeedRecords() []Record {
	all := codecRecords()
	return []Record{all[4], all[3], all[7]}
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
		} else if !strings.HasPrefix(err.Error(), "probe: decode frame: ") {
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
// the bytes could hold; the decoder agrees with refDecode, the per-field
// decoder it replaced — the same records, or an error from both; whatever
// decodes survives a re-encode unchanged, and a decoder that has a frame
// behind it (a slab to reuse, strings interned) answers exactly as a fresh
// one does. The index decode recovery reads segments with holds every field
// of its entries to the full decode's, and it and DecodeInto on a dst one
// record short of the frame and on one that fits it agree with Decode on
// error versus value. The compact decode a query scans with agrees with
// Decode too: its records, resolved through their symbols, are Decode's but
// for the link blocks, or both decodes fail. So does the frame decode a
// chain table takes frames in with: its records, resolved through the
// frame's own table, are Decode's but for an event record's link block;
// mapped into a symbol table through a FrameRemap, they re-encode through
// EncodeCompacts to the bytes Encode writes for Decode's records without
// their link blocks.
// Seeds are checked in under testdata/fuzz/FuzzDecodeBatch (the frames
// corruptions derives); the valid frame is added here too so the fuzzer
// keeps a live starting point if the layout moves, and so is a frame of
// events alone, which the index decode reads without a full decode.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(encodeBatch(fuzzSeedRecords()))
	f.Add(encodeBatch(codecRecords()))
	f.Add(encodeBatch(codecRecords()[:7]))
	f.Fuzz(func(t *testing.T, body []byte) {
		var d FrameDecoder
		recs, err := d.Decode(body)
		ref, refErr := refDecode(body)
		if (err != nil) != (refErr != nil) || len(recs) != len(ref) || len(ref) > 0 && !reflect.DeepEqual(recs, ref) {
			t.Fatalf("decoder: %v, %d records; reference decoder: %v, %d records", err, len(recs), refErr, len(ref))
		}
		if err != nil {
			if recs != nil {
				t.Fatalf("error %v with %d records", err, len(recs))
			}
			checkUsedDecoder(t, body, nil, true)
			checkIndexAndInto(t, body, nil, true)
			checkCompact(t, body, nil, true)
			checkFrame(t, body, nil, true)
			return
		}
		if len(recs) > len(body)/minRecordSize {
			t.Fatalf("%d records out of %d bytes", len(recs), len(body))
		}
		checkUsedDecoder(t, body, recs, false)
		checkIndexAndInto(t, body, recs, false)
		checkCompact(t, body, recs, false)
		checkFrame(t, body, recs, false)
		checkUsedEncoder(t, recs)
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
func checkUsedDecoder(t *testing.T, body []byte, want []Record, wantErr bool) {
	t.Helper()
	var used FrameDecoder
	if _, err := used.Decode(encodeBatch(codecRecords())); err != nil {
		t.Fatal(err)
	}
	got, err := used.Decode(body)
	if (err != nil) != wantErr || len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("used decoder: %v, %d records; fresh decoder: error=%v, %d records", err, len(got), wantErr, len(want))
	}
}

// checkUsedEncoder encodes recs with an encoder that has already encoded
// frames sharing part of their vocabulary, and requires the bytes a fresh
// encoder writes.
func checkUsedEncoder(t *testing.T, recs []Record) {
	t.Helper()
	var used FrameEncoder
	used.Encode(codecRecords())
	if len(recs) > 0 {
		used.Encode(recs[len(recs)/2:])
	}
	if got, want := used.Encode(recs), EncodeFrame(recs); !bytes.Equal(got, want) {
		t.Fatalf("used encoder wrote %d bytes that differ from a fresh encoder's %d", len(got), len(want))
	}
}

// checkCompact requires of DecodeCompact what Decode gave for body: an
// error, or want without its link blocks once resolved — through a fresh
// symbol table and through one that has interned another frame's strings,
// into the decoder's slab and into a dst that fits the frame, never writing
// past it.
func checkCompact(t *testing.T, body []byte, want []Record, wantErr bool) {
	t.Helper()
	want = slices.Clone(want)
	for i := range want {
		want[i].LinkParent, want[i].LinkParentSeq, want[i].LinkChild = uuid.UUID{}, 0, uuid.UUID{}
	}
	syms := NewSymbols(2)
	var used FrameDecoder
	if _, err := used.DecodeCompact(encodeBatch(codecRecords()), syms.Table(0), nil); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		syms       *Symbols
		part, room int
	}{{NewSymbols(1), 0, -1}, {syms, 0, -1}, {syms, 1, len(want)}} {
		var slots, dst []Compact
		if tc.room >= 0 {
			slots = make([]Compact, tc.room+1)
			slots[tc.room].Seq = 99
			dst = slots[:0:tc.room]
		}
		got, err := used.DecodeCompact(body, tc.syms.Table(tc.part), dst)
		if (err != nil) != wantErr || len(got) != len(want) {
			t.Fatalf("DecodeCompact: %v, %d records; Decode: error=%v, %d records", err, len(got), wantErr, len(want))
		}
		for i := range got {
			if got[i].Part != uint32(tc.part) {
				t.Fatalf("DecodeCompact record %d: part %d, its table's %d", i, got[i].Part, tc.part)
			}
			var r Record
			if tc.syms.Resolve(&r, &got[i]); !reflect.DeepEqual(r, want[i]) {
				t.Fatalf("DecodeCompact record %d resolves to %+v, Decode gave %+v", i, r, want[i])
			}
		}
		if tc.room >= 0 && slots[tc.room].Seq != 99 {
			t.Fatalf("DecodeCompact into %d slots wrote past them", tc.room)
		}
	}
}

// checkFrame requires of DecodeFrame what Decode gave for body — an
// error, or want resolved through the frame's table but for the link
// blocks of event records — from a fresh decoder and from one that has
// decoded a frame before; and of the frame mapped into a fresh symbol table
// and into one that holds another frame's strings, through EncodeCompacts,
// the bytes Encode writes for want without its link blocks.
func checkFrame(t *testing.T, body []byte, want []Record, wantErr bool) {
	t.Helper()
	var used FrameDecoder
	if _, err := used.DecodeFrame(encodeBatch(codecRecords())); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*FrameDecoder{{}, &used} {
		f, err := d.DecodeFrame(body)
		if (err != nil) != wantErr {
			t.Fatalf("DecodeFrame: %v; Decode: error=%v", err, wantErr)
		}
		if wantErr {
			if f != nil {
				t.Fatalf("DecodeFrame: %v beside a frame", err)
			}
			continue
		}
		if len(f.Records) != len(want) || len(f.Semantics) != len(want) {
			t.Fatalf("DecodeFrame: %d records, %d Semantics; Decode: %d records", len(f.Records), len(f.Semantics), len(want))
		}
		links := f.Links
		for i := range f.Records {
			c := &f.Records[i]
			str := func(e uint32) string { return string(f.Strings[e]) }
			r := Record{
				Kind: c.Kind, Process: str(c.Process), ProcType: str(c.ProcType), Thread: c.Thread,
				Op:     OpID{Component: str(c.Op.Component), Interface: str(c.Op.Interface), Operation: str(c.Op.Operation), Object: str(c.Op.Object)},
				Oneway: c.Oneway, Collocated: c.Collocated, LatencyArmed: c.LatencyArmed, CPUArmed: c.CPUArmed,
				Semantics: string(f.Semantics[i]), Chain: c.Chain, Event: c.Event, Seq: c.Seq,
				WallStart: WallTime(c.WallStart), WallEnd: WallTime(c.WallEnd), CPUStart: c.CPUStart, CPUEnd: c.CPUEnd,
			}
			var resolved Record
			f.Resolve(&resolved, i)
			if !reflect.DeepEqual(resolved, r) {
				t.Fatalf("Frame.Resolve of record %d gives %+v, its fields %+v", i, resolved, r)
			}
			w := want[i]
			if w.Kind == KindLink {
				if len(links) == 0 {
					t.Fatalf("DecodeFrame record %d is a link beyond the frame's %d link blocks", i, len(f.Links))
				}
				r.LinkParent, r.LinkParentSeq, r.LinkChild = links[0].Parent, links[0].ParentSeq, links[0].Child
				links = links[1:]
			} else {
				w.LinkParent, w.LinkParentSeq, w.LinkChild = uuid.UUID{}, 0, uuid.UUID{}
			}
			if !reflect.DeepEqual(r, w) {
				t.Fatalf("DecodeFrame record %d resolves to %+v, Decode gave %+v", i, r, w)
			}
		}
		if len(links) != 0 {
			t.Fatalf("DecodeFrame gave %d link blocks beyond its link records", len(links))
		}
	}
	if wantErr {
		return
	}
	stripped := slices.Clone(want)
	for i := range stripped {
		stripped[i].LinkParent, stripped[i].LinkParentSeq, stripped[i].LinkChild = uuid.UUID{}, 0, uuid.UUID{}
	}
	wantBytes := EncodeFrame(stripped)
	other := NewSymbols(1).Table(0)
	var m FrameRemap
	for _, src := range [][]Record{codecRecords(), fuzzSeedRecords()} {
		f, err := used.DecodeFrame(encodeBatch(src))
		if err != nil {
			t.Fatal(err)
		}
		m.Reset(other, f)
		for i := range f.Records {
			m.Convert(&Compact{}, f, i)
		}
	}
	var enc FrameEncoder
	enc.EncodeCompacts(nil, other)
	for _, tab := range []*SymbolTable{NewSymbols(1).Table(0), other} {
		f, err := used.DecodeFrame(body)
		if err != nil {
			t.Fatal(err)
		}
		m.Reset(tab, f)
		cs := make([]Compact, len(f.Records))
		for i := range cs {
			m.Convert(&cs[i], f, i)
		}
		if got := enc.EncodeCompacts(cs, tab); !bytes.Equal(got, wantBytes) {
			t.Fatalf("EncodeCompacts of the remapped frame wrote %d bytes that differ from Encode's %d", len(got), len(wantBytes))
		}
	}
}

// checkIndexAndInto requires of DecodeIndex and DecodeInto what Decode gave
// for body: want, or an error. DecodeIndex's entries match want field for
// field, and it gives the records too exactly when want holds a link.
func checkIndexAndInto(t *testing.T, body []byte, want []Record, wantErr bool) {
	t.Helper()
	var d FrameDecoder
	ents, full, err := d.DecodeIndex(body)
	if (err != nil) != wantErr {
		t.Fatalf("DecodeIndex: %v, %d entries; Decode: error=%v, %d records", err, len(ents), wantErr, len(want))
	}
	if !wantErr {
		checkEntries(t, ents, want)
		hasLink := slices.ContainsFunc(want, func(r Record) bool { return r.Kind == KindLink })
		if hasLink != (full != nil) || hasLink && !reflect.DeepEqual(full, want) {
			t.Fatalf("DecodeIndex gave %d records beside its entries; Decode's %d hold a link: %v", len(full), len(want), hasLink)
		}
	}
	for _, room := range []int{len(want), len(want) - 1} {
		if room < 0 {
			continue
		}
		dst := make([]Record, room+1)
		dst[room] = Record{Kind: KindEvent, Process: "neighbour"}
		got, err := d.DecodeInto(body, dst[:0:room])
		if (err != nil) != wantErr || len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeInto %d slots: %v, %d records; Decode: error=%v, %d records", room, err, len(got), wantErr, len(want))
		}
		if dst[room].Process != "neighbour" {
			t.Fatalf("DecodeInto %d slots wrote past them", room)
		}
	}
}
