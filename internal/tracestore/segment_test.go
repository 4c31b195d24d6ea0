package tracestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"causeway/internal/cdr"
	"causeway/internal/ftl"
	"causeway/internal/probe"
)

// openSegment opens a one-shard store whose only segment holds seg.
func openSegment(t testing.TB, seg []byte) (*Store, error) {
	dir := t.TempDir()
	if err := writeManifest(dir, 1); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "shard-000"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "shard-000", segName(0)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	return Open(dir, Options{})
}

func payloadOf(r probe.Record) []byte {
	var e cdr.Encoder
	encodePayload(&e, &r)
	return e.Bytes()
}

// segmentOf is a segment file: the magic, then each payload behind its
// length.
func segmentOf(payloads ...[]byte) []byte {
	seg := []byte(segMagic)
	for _, p := range payloads {
		seg = binary.LittleEndian.AppendUint32(seg, uint32(len(p)))
		seg = append(seg, p...)
	}
	return seg
}

// segmentSeeds are FuzzOpenSegment's checked-in seeds: a valid segment,
// its torn tails, and the malformed frames recovery must refuse. want is
// the records a store recovers from the seed, -1 for a hard error.
func segmentSeeds() (seeds map[string][]byte, want map[string]int) {
	wall := time.Unix(1700000000, 12345)
	c, child := chainID(3), chainID(4)
	recs := []probe.Record{
		ev(c, 1, ftl.StubStart, "IJobSubmitter", wall),
		ev(c, 2, ftl.SkelStart, "IJobSubmitter", wall),
		link(c, 2, child),
		ev(child, 1, ftl.SkelStart, "ISpool", time.Time{}),
		ev(c, 3, ftl.SkelEnd, "IJobSubmitter", wall),
	}
	recs[1].Semantics = "in: job=42"
	var payloads [][]byte
	for _, r := range recs {
		payloads = append(payloads, payloadOf(r))
	}
	valid := segmentOf(payloads...)
	event, lnk := payloads[0], payloads[2]

	stringPastEnd := append([]byte(nil), event...)
	binary.LittleEndian.PutUint32(stringPastEnd[2:], 1<<20) // Process's length
	unknownKind := append([]byte(nil), event...)
	unknownKind[0] = 7
	seeds = map[string][]byte{
		"valid":                 valid,
		"torn-in-payload":       valid[:len(valid)-7],
		"torn-in-length":        valid[:segHeader+2],
		"torn-header":           valid[:5],
		"wrong-magic":           append([]byte("CWFTLOG1"), valid[segHeader:]...),
		"length-over-cap":       append(segmentOf(), binary.LittleEndian.AppendUint32(nil, maxFramePayload+1)...),
		"zero-length-frame":     segmentOf(event, nil),
		"event-string-past-end": segmentOf(event, stringPastEnd),
		"event-trailing-byte":   segmentOf(event, append(event[:len(event):len(event)], 0)),
		"event-short":           segmentOf(event, event[:len(event)-1]),
		"link-short":            segmentOf(event, lnk[:len(lnk)-1]),
		"unknown-kind":          segmentOf(event, unknownKind),
		"event-with-no-strings": segmentOf(payloadOf(probe.Record{Kind: probe.KindEvent, Chain: c, Seq: 9})),
		"link-then-torn-event":  append(segmentOf(lnk), segmentOf(event)[segHeader:segHeader+20]...),
	}
	want = map[string]int{
		"valid":                 len(recs),
		"torn-in-payload":       len(recs) - 1,
		"torn-in-length":        0,
		"torn-header":           0,
		"event-with-no-strings": 1,
		"link-then-torn-event":  1,
	}
	for name := range seeds {
		if _, ok := want[name]; !ok {
			want[name] = -1
		}
	}
	return seeds, want
}

// Recovery indexes a segment without building an event's strings, so it
// must refuse exactly what the full decode refuses: every malformed frame
// is a hard error, a torn tail leaves the complete frames. UPDATE_FUZZ_CORPUS=1
// rewrites FuzzOpenSegment's checked-in seeds from these segments after a
// layout change.
func TestOpenSegmentRefusesMalformedFrames(t *testing.T) {
	seeds, want := segmentSeeds()
	for name, seg := range seeds {
		s, err := openSegment(t, seg)
		if want[name] < 0 {
			if err == nil {
				s.Close()
				t.Errorf("%s: opened, want a hard error", name)
			} else if errors.Is(err, probe.ErrTruncated) {
				t.Errorf("%s: %v reads as a torn tail, want a hard error", name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got := s.Len(); got != want[name] {
			t.Errorf("%s: recovered %d records, want %d", name, got, want[name])
		}
		torn := name != "valid" && name != "event-with-no-strings"
		if warned := len(s.Warnings()) > 0; warned != torn {
			t.Errorf("%s: warnings %v, want a torn-tail warning %v", name, s.Warnings(), torn)
		}
		s.Close()
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzOpenSegment")
	for name, seg := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seg)
		path := filepath.Join(dir, name)
		if os.Getenv("UPDATE_FUZZ_CORPUS") != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if have, err := os.ReadFile(path); err != nil || string(have) != body {
			t.Errorf("fuzz seed %s is missing or stale (%v); rerun with UPDATE_FUZZ_CORPUS=1", path, err)
		}
	}
}

// FuzzOpenSegment: arbitrary bytes as shard-000's segment. Open returns an
// error, or a store on which every indexed chain's Events reads back without
// a new warning and, with the links, Len() records — whatever the
// index-only recovery scan accepted, the full decode on the read path
// accepts too.
func FuzzOpenSegment(f *testing.F) {
	seeds, _ := segmentSeeds()
	f.Add(seeds["valid"])
	f.Fuzz(func(t *testing.T, seg []byte) {
		s, err := openSegment(t, seg)
		if err != nil {
			return
		}
		defer s.Close()
		warned := len(s.Warnings())
		n := len(s.Links())
		for _, c := range s.Chains() {
			n += len(s.Events(c))
		}
		if w := s.Warnings(); len(w) != warned {
			t.Fatalf("reading the indexed chains warned: %v", w[warned:])
		}
		if n != s.Len() {
			t.Fatalf("read back %d records, the index holds %d", n, s.Len())
		}
	})
}
