package probe

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"causeway/internal/ftl"
	"causeway/internal/uuid"
)

// goldenStream is the record stream pinned byte for byte: the magic, then one
// frame holding an event and a link that share their identity strings.
func goldenStream(t testing.TB) (recs []Record, stream []byte) {
	t.Helper()
	op := OpID{Component: "c", Interface: "I", Operation: "op", Object: "o"}
	parent, child := uuid.UUID{0: 0xc0, 15: 1}, uuid.UUID{0: 0xc0, 15: 2}
	recs = []Record{
		{Kind: KindEvent, Process: "p1", ProcType: "x86", Thread: 7, Op: op, Chain: parent, Event: ftl.StubStart, Seq: 1, Oneway: true},
		{Kind: KindLink, Process: "p1", ProcType: "x86", Thread: 7, Op: op, LinkParent: parent, LinkParentSeq: 1, LinkChild: child},
	}
	var buf bytes.Buffer
	ss := NewStreamSink(&buf)
	ss.AppendSpan(recs)
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	return recs, buf.Bytes()
}

// The stream layout, written out field by field. A change here is a format
// change: every .ftlog on disk and every /exportz peer stops being readable.
func TestStreamGoldenBytes(t *testing.T) {
	str := func(s string) string {
		return hex.EncodeToString(binary.LittleEndian.AppendUint32(nil, uint32(len(s)))) + hex.EncodeToString([]byte(s))
	}
	indexes := "00000000" + "01000000" + "02000000" + "03000000" + "04000000" + "05000000"
	thread7 := "0700000000000000"
	noTime := "0000000000000080" // the zero time's sentinel, math.MinInt64
	chain1 := "c0000000000000000000000000000001"
	chain2 := "c0000000000000000000000000000002"
	frame := "06000000" + str("p1") + str("x86") + str("c") + str("I") + str("op") + str("o") + // string table
		"02000000" + // two records
		"01" + "11" + "01" + indexes + thread7 + str("") + // event: kind, flags oneway|hasEvent, stub_start
		chain1 + "0100000000000000" + noTime + noTime + "0000000000000000" + "0000000000000000" +
		"02" + "20" + "00" + indexes + thread7 + str("") + // link: kind, flags hasLink, no event
		chain1 + "0100000000000000" + chain2
	want := hex.EncodeToString([]byte("CWFTLOG1")) + hex.EncodeToString(binary.LittleEndian.AppendUint32(nil, uint32(len(frame)/2))) + frame

	recs, stream := goldenStream(t)
	if got := hex.EncodeToString(stream); got != want {
		t.Fatalf("stream bytes moved:\n got %s\nwant %s", got, want)
	}
	back, err := ReadStream(bytes.NewReader(stream))
	if err != nil || !reflect.DeepEqual(back, recs) {
		t.Fatalf("golden stream reads back as %+v, %v", back, err)
	}
	if none, err := ReadStream(bytes.NewReader(nil)); err != nil || len(none) != 0 {
		t.Fatalf("empty stream (a writer that flushed nothing): %d records, %v", len(none), err)
	}
}

// threeFrames writes frames of two, one and three records and returns the
// stream with the offset each frame ends at.
func threeFrames(t testing.TB) (recs []Record, stream []byte, ends []int) {
	t.Helper()
	for i := 1; i <= 6; i++ {
		recs = append(recs, frameRecord("p", uint64(i)))
	}
	recs[3].Semantics = "in: job=42"
	var buf bytes.Buffer
	ss := NewStreamSink(&buf)
	for _, span := range [][]Record{recs[0:2], recs[2:3], recs[3:6]} {
		if len(span) == 1 {
			ss.Append(span[0])
		} else {
			ss.AppendSpan(span)
		}
		if err := ss.Flush(); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, buf.Len())
	}
	return recs, buf.Bytes(), ends
}

// The one torn-tail rule: whatever byte a stream is cut at, the reader returns
// exactly the records of the complete frames, and ErrTruncated exactly when
// the cut is off a frame boundary.
func TestReadFramesTornAtEveryByte(t *testing.T) {
	recs, stream, ends := threeFrames(t)
	counts := []int{2, 1, 3}
	for cut := 0; cut <= len(stream); cut++ {
		whole, records, onBoundary := 0, 0, cut == 0 || cut == len(StreamMagic)
		for i, end := range ends {
			if cut >= end {
				whole, records = i+1, records+counts[i]
			}
			onBoundary = onBoundary || cut == end
		}
		var frames []int
		var got []Record
		err := ReadFrames(io.LimitReader(bytes.NewReader(stream), int64(cut)), func(f []Record) {
			frames = append(frames, len(f))
			got = append(got, f...)
		})
		if !reflect.DeepEqual(frames, counts[:whole]) && !(whole == 0 && len(frames) == 0) {
			t.Fatalf("cut %d: frames of %v records, want %v", cut, frames, counts[:whole])
		}
		if len(got) != records || (records > 0 && !reflect.DeepEqual(got, recs[:records])) {
			t.Fatalf("cut %d: %d records, want the first %d", cut, len(got), records)
		}
		if onBoundary && err != nil {
			t.Fatalf("cut %d, a frame boundary: %v", cut, err)
		}
		if !onBoundary && !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d, inside a frame: error %v, want ErrTruncated", cut, err)
		}
		all, err2 := ReadStream(bytes.NewReader(stream[:cut]))
		if len(all) != records || (err2 == nil) != (err == nil) {
			t.Fatalf("cut %d: ReadStream gives %d records, %v; ReadFrames %d, %v", cut, len(all), err2, records, err)
		}
	}
}

// gobEraLog is a .ftlog of two records as the last gob-writing commit left
// it on disk (its first bytes; the reader must not get past them).
const gobEraLog = "\xfe\x01\x11\xff\x89\x03\x01\x01\x06Record\x01\xff\x8a\x00\x01\x14\x01\x04Kind\x01\x06\x00\x01\aProcess\x01\f\x00\x01\bProcType\x01\f\x00"

// hostileStreams are streams no writer produces. Each must be refused with a
// hard error — except the one that merely stops early — without a panic and
// without memory following what a length field claims.
func hostileStreams(t testing.TB) map[string][]byte {
	_, valid, ends := threeFrames(t)
	le := binary.LittleEndian
	withLength := func(n uint32, behind int) []byte {
		return append(le.AppendUint32([]byte(StreamMagic), n), make([]byte, behind)...)
	}
	badFrame := append([]byte(nil), valid...)
	badFrame[ends[0]+4+4+3] ^= 0x80 // second frame: high byte of the first table string's length
	return map[string][]byte{
		"length-4GiB-10-bytes-behind":   withLength(1<<32-1, 10),
		"length-over-cap":               withLength(MaxFrameBytes+1, 10),
		"length-60MiB-10-bytes-behind":  withLength(60<<20, 10), // torn, not hostile: the cap allows it
		"zero-length-frame":             withLength(0, 0),
		"zero-length-frame-then-frames": append(withLength(0, 0), valid[len(StreamMagic):]...),
		"wrong-magic":                   append([]byte("CWTSEG1\n"), valid[len(StreamMagic):]...),
		"short-wrong-magic":             []byte("CWX"),
		"gob-era-file":                  []byte(gobEraLog),
		"malformed-second-frame":        badFrame,
		"garbage-frame":                 append(withLength(16, 0), bytes.Repeat([]byte{0xff}, 16)...),
	}
}

// UPDATE_FUZZ_CORPUS=1 rewrites FuzzReadStream's checked-in seeds from these
// streams after a layout change, as TestBatchDecodeRejectsMalformedFrames
// does for FuzzDecodeBatch's.
func TestReadFramesRefusesHostileStreams(t *testing.T) {
	seeds := hostileStreams(t)
	for name, stream := range seeds {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, err := ReadStream(bytes.NewReader(stream))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: reading %d bytes allocated %d", name, len(stream), grew)
		}
		torn := name == "length-60MiB-10-bytes-behind"
		if err == nil || errors.Is(err, ErrTruncated) != torn {
			t.Errorf("%s: error %v (truncated=%v), want a hard error=%v", name, err, errors.Is(err, ErrTruncated), !torn)
		}
		if want := map[string]int{"malformed-second-frame": 2}[name]; len(recs) != want {
			t.Errorf("%s: %d records beside the error, want %d", name, len(recs), want)
		}
		if name == "gob-era-file" && !strings.Contains(err.Error(), "gob") {
			t.Errorf("a gob-era file is refused without saying so: %v", err)
		}
	}
	_, seeds["valid"], _ = threeFrames(t)
	seeds["torn-in-body"] = seeds["valid"][:len(seeds["valid"])-7]
	seeds["torn-in-length"] = seeds["valid"][:len(StreamMagic)+2]
	dir := filepath.Join("testdata", "fuzz", "FuzzReadStream")
	for name, stream := range seeds {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", stream)
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

// FuzzReadStream: error or value, never a panic, never more records than the
// bytes could hold; ReadStream is ReadFrames collected; and whatever was read
// — all of a clean stream, the complete frames of a damaged one — survives
// being written as a stream again.
func FuzzReadStream(f *testing.F) {
	_, valid, _ := threeFrames(f)
	f.Add(valid)
	f.Fuzz(func(t *testing.T, stream []byte) {
		recs, err := ReadStream(bytes.NewReader(stream))
		if len(recs) > len(stream)/minRecordSize {
			t.Fatalf("%d records out of %d bytes", len(recs), len(stream))
		}
		framed := 0
		ferr := ReadFrames(bytes.NewReader(stream), func(f []Record) { framed += len(f) })
		if framed != len(recs) || (ferr == nil) != (err == nil) {
			t.Fatalf("ReadFrames: %d records, %v; ReadStream: %d, %v", framed, ferr, len(recs), err)
		}
		var buf bytes.Buffer
		ss := NewStreamSink(&buf)
		ss.AppendSpan(recs)
		if err := ss.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := ReadStream(&buf)
		if err != nil || len(again) != len(recs) || (len(recs) > 0 && !reflect.DeepEqual(again, recs)) {
			t.Fatalf("rewritten stream reads back %d of %d records, %v", len(again), len(recs), err)
		}
	})
}
