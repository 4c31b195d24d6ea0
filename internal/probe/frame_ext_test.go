package probe_test

// The frame codec's tests that need packages which themselves import probe
// (a generated workload, the trace store) live in the external test package.

import (
	"reflect"
	"sort"
	"testing"

	"causeway/internal/probe"
	"causeway/internal/tracestore"
	"causeway/internal/uuid"
	"causeway/internal/workload"
)

// The frame codec returns exactly what the trace store reads back for the
// same record — the store's segments are frames too, written a chain's run
// at a time and read back a chain at a time — so a record that reaches the
// store over the wire equals one inserted directly.
func TestBatchCodecMatchesStoreCodec(t *testing.T) {
	recs := probe.CodecRecords()
	var dec probe.FrameDecoder
	got, err := dec.Decode(probe.EncodeFrame(recs))
	if err != nil {
		t.Fatal(err)
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
	var enc probe.FrameEncoder
	var dec probe.FrameDecoder
	bodies := make([][]byte, len(frames))
	for i, f := range frames {
		bodies[i] = append([]byte(nil), enc.Encode(f)...)
		if _, err := dec.Decode(bodies[i]); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	if a := testing.AllocsPerRun(200, func() {
		enc.Encode(frames[i%len(frames)])
		i++
	}); a != 0 {
		t.Errorf("encode allocates %v per frame in steady state, want 0", a)
	}
	i = 0
	if a := testing.AllocsPerRun(200, func() {
		if _, err := dec.Decode(bodies[i%len(bodies)]); err != nil {
			t.Fatal(err)
		}
		i++
	}); a != 0 {
		t.Errorf("decode allocates %v per 256-record frame of a seen vocabulary, want 0", a)
	}
	i = 0
	if a := testing.AllocsPerRun(200, func() {
		if _, err := dec.DecodeFrame(bodies[i%len(bodies)]); err != nil {
			t.Fatal(err)
		}
		i++
	}); a != 0 {
		t.Errorf("frame decode allocates %v per 256-record frame, want 0", a)
	}
}

// BenchmarkShipFrameCodec times the two halves of a ship frame's codec on
// 256-record frames of a generated run. One benchmark op is one RECORD, so
// ns/op and allocs/op read per record, comparable with the per-record rows
// of the ingest benches.
func BenchmarkShipFrameCodec(b *testing.B) {
	const size = 256
	frames := workloadFrames(b, size)
	var enc probe.FrameEncoder
	bodies := make([][]byte, len(frames))
	for i, f := range frames {
		bodies[i] = append([]byte(nil), enc.Encode(f)...)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for done := 0; done < b.N; done += size {
			enc.Encode(frames[(done/size)%len(frames)])
		}
	})
	b.Run("decode", func(b *testing.B) {
		var dec probe.FrameDecoder
		b.ReportAllocs()
		for done := 0; done < b.N; done += size {
			if _, err := dec.Decode(bodies[(done/size)%len(bodies)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// chainFrames regroups a generated run's records into one frame per chain,
// every process's records of the chain in the order they were taken — the
// trace store's frame for a chain's run.
func chainFrames(tb testing.TB) [][]probe.Record {
	tb.Helper()
	var frames [][]probe.Record
	at := make(map[uuid.UUID]int)
	for _, f := range workloadFrames(tb, 256) {
		for _, r := range f {
			i, ok := at[r.Chain]
			if !ok {
				i = len(frames)
				at[r.Chain] = i
				frames = append(frames, nil)
			}
			frames[i] = append(frames[i], r)
		}
	}
	return frames
}

// BenchmarkFrameDecode times the full decode (Decode into the decoder's
// slab), the index decode (DecodeIndex) and the frame decode a chain table
// takes (DecodeFrame) of a shipper's 256-record frame and of a trace-store
// segment frame that holds one chain, in ns/record.
func BenchmarkFrameDecode(b *testing.B) {
	for _, shape := range []struct {
		name   string
		frames [][]probe.Record
	}{{"ship256", workloadFrames(b, 256)}, {"chain", chainFrames(b)}} {
		var enc probe.FrameEncoder
		bodies := make([][]byte, len(shape.frames))
		records := 0
		for i, f := range shape.frames {
			bodies[i] = append([]byte(nil), enc.Encode(f)...)
			records += len(f)
		}
		perRecord := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)*float64(len(bodies))/float64(records), "ns/record")
		}
		b.Run(shape.name+"/full", func(b *testing.B) {
			var dec probe.FrameDecoder
			for i := 0; i < b.N; i++ {
				if _, err := dec.Decode(bodies[i%len(bodies)]); err != nil {
					b.Fatal(err)
				}
			}
			perRecord(b)
		})
		b.Run(shape.name+"/index", func(b *testing.B) {
			var dec probe.FrameDecoder
			for i := 0; i < b.N; i++ {
				if _, _, err := dec.DecodeIndex(bodies[i%len(bodies)]); err != nil {
					b.Fatal(err)
				}
			}
			perRecord(b)
		})
		b.Run(shape.name+"/frame", func(b *testing.B) {
			var dec probe.FrameDecoder
			for i := 0; i < b.N; i++ {
				if _, err := dec.DecodeFrame(bodies[i%len(bodies)]); err != nil {
					b.Fatal(err)
				}
			}
			perRecord(b)
		})
	}
}
