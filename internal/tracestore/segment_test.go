package tracestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

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

// segmentOf is a segment file: the magic, then each frame body behind its
// length.
func segmentOf(bodies ...[]byte) []byte {
	seg := []byte(probe.StreamMagic)
	for _, b := range bodies {
		seg = binary.LittleEndian.AppendUint32(seg, uint32(len(b)))
		seg = append(seg, b...)
	}
	return seg
}

func frameOf(recs ...probe.Record) []byte { return probe.EncodeFrame(recs) }

// eventRecordBytes is one event record inside a frame with no Semantics and
// no link block (probe/frame.go): it ends the frame of a lone ev record.
const eventRecordBytes = 95

// cwtseg1Segment is a segment of one event as the per-record layout stored
// it before segments were record streams.
const cwtseg1Segment = "CWTSEG1\n\xa0\x00\x00\x00\x01\x04\x06\x00\x00\x00proc00\x00\x00\x00\x00\a\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00comp\r\x00\x00\x00IJobSubmitter\x02\x00\x00\x00op\x00\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00B\x01\x01\x00\x00\x00\x00\x00\x00\x0090*6\xfe\x9c\x97\x17yr96\xfe\x9c\x97\x17\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"

// segmentSeeds are FuzzOpenSegment's checked-in seeds: a valid segment as a
// shard writes it, its torn tails, the malformed frames recovery must
// refuse, and a segment of the old layout. want is the records a store
// recovers from the seed, -1 for a hard error.
func segmentSeeds() (seeds map[string][]byte, want map[string]int) {
	wall := time.Unix(1700000000, 12345)
	c, child := chainID(3), chainID(4)
	run := []probe.Record{
		ev(c, 1, ftl.StubStart, "IJobSubmitter", wall),
		ev(c, 2, ftl.SkelStart, "IJobSubmitter", wall),
		link(c, 2, child),
	}
	run[1].Semantics = "in: job=42"
	valid := segmentOf(
		frameOf(run...),
		frameOf(ev(child, 1, ftl.SkelStart, "ISpool", time.Time{})),
		frameOf(ev(c, 3, ftl.SkelEnd, "IJobSubmitter", wall)),
	)
	event, lnk := frameOf(run[0]), frameOf(run[2])

	stringPastEnd := frameOf(run[0])
	binary.LittleEndian.PutUint32(stringPastEnd[4:], 1<<20) // the first table string's length
	unknownKind := frameOf(run[0])
	unknownKind[len(unknownKind)-eventRecordBytes] = 7
	// Two chains' events in one frame: more records than either chain's
	// slot of a scan holds.
	other := ev(child, 1, ftl.SkelStart, "ISpool", wall)
	seeds = map[string][]byte{
		"valid":                 valid,
		"torn-in-payload":       valid[:len(valid)-7],
		"torn-in-length":        valid[:segHeader+2],
		"torn-header":           valid[:5],
		"wrong-magic":           append([]byte("CWFTLOG2"), valid[segHeader:]...),
		"cwtseg1-era":           []byte(cwtseg1Segment),
		"length-over-cap":       binary.LittleEndian.AppendUint32(segmentOf(), probe.MaxFrameBytes+1),
		"zero-length-frame":     segmentOf(event, nil),
		"event-string-past-end": segmentOf(event, stringPastEnd),
		"event-trailing-byte":   segmentOf(event, append(event[:len(event):len(event)], 0)),
		"event-short":           segmentOf(event, event[:len(event)-1]),
		"link-short":            segmentOf(event, lnk[:len(lnk)-1]),
		"unknown-kind":          segmentOf(event, unknownKind),
		"event-with-no-strings": segmentOf(frameOf(probe.Record{Kind: probe.KindEvent, Chain: c, Seq: 9})),
		"link-then-torn-event":  append(segmentOf(lnk), segmentOf(event)[segHeader:segHeader+20]...),
		"link-bearing-frame":    segmentOf(frameOf(run[2], run[0], run[1])),
		"frame-overflows-slot":  segmentOf(frameOf(run[0], other, run[1]), frameOf(ev(c, 3, ftl.SkelEnd, "IJobSubmitter", wall))),
	}
	want = map[string]int{
		"valid":                 len(run) + 2,
		"torn-in-payload":       len(run) + 1,
		"torn-in-length":        0,
		"torn-header":           0,
		"event-with-no-strings": 1,
		"link-then-torn-event":  1,
		"link-bearing-frame":    len(run),
		"frame-overflows-slot":  4,
	}
	for name := range seeds {
		if _, ok := want[name]; !ok {
			want[name] = -1
		}
	}
	return seeds, want
}

// Recovery reads a segment through probe.FrameReader, so it keeps the record
// stream's one torn-tail rule: every malformed frame is a hard error, a torn
// tail leaves the complete frames, and a segment of the old per-record
// layout is refused by name. UPDATE_FUZZ_CORPUS=1 rewrites FuzzOpenSegment's
// checked-in seeds from these segments after a layout change.
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
			} else if name == "cwtseg1-era" && !strings.Contains(err.Error(), "CWTSEG1 segment") {
				t.Errorf("%s: refused without naming the old layout: %v", name, err)
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
		torn := strings.HasPrefix(name, "torn-") || name == "link-then-torn-event"
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
// a new warning and, with the links, Len() records — whatever recovery
// indexed at a frame, the read path finds in that frame — and the shard's
// scan hands each chain, once, exactly what Events returns once resolved
// through the scan's symbols, but for the link blocks a compact record does
// not keep.
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
		scanned := scanAll(t, s)
		if w := s.Warnings(); len(w) != warned {
			t.Fatalf("the scan warned: %v", w[warned:])
		}
		if len(scanned) != len(s.Chains()) {
			t.Fatalf("the scan handed over %d chains of %d", len(scanned), len(s.Chains()))
		}
		for _, c := range s.Chains() {
			if got, want := scanned[c], withoutLinkBlocks(s.Events(c)); !reflect.DeepEqual(got, want) {
				t.Fatalf("chain %s: the scan handed over %d events, Events returns %d", c.Short(), len(got), len(want))
			}
		}
	})
}

// Recovery indexes a frame that interleaves chains, as older segments hold,
// at each chain's run: every chain gets its events in order, and none is
// given room for the other chains' records.
func TestRecoveredInterleavedFrameIndexesEachChain(t *testing.T) {
	const chains, perChain = 8, 4
	wall := time.Unix(1700000000, 0)
	var recs []probe.Record
	for seq := uint64(1); seq <= perChain; seq++ {
		for c := byte(0); c < chains; c++ {
			recs = append(recs, ev(chainID(10+c), seq, ftl.SkelStart, "ISpool", wall))
		}
	}
	s, err := openSegment(t, segmentOf(frameOf(recs...)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != len(recs) {
		t.Fatalf("recovered %d records, want %d", s.Len(), len(recs))
	}
	for c := byte(0); c < chains; c++ {
		ci := s.shards[0].chains[chainID(10+c)]
		if ci == nil || len(ci.locs) != perChain || ci.dirty {
			t.Fatalf("chain %d: index %+v, want %d clean locations", c, ci, perChain)
		}
		for i, loc := range ci.locs {
			if loc.seq != uint64(i+1) {
				t.Fatalf("chain %d: location %d has seq %d", c, i, loc.seq)
			}
		}
		if cap(ci.locs) >= 2*perChain {
			t.Errorf("chain %d: %d locations reserve room for %d", c, perChain, cap(ci.locs))
		}
	}
}
