package probe

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"causeway/internal/cputime"
	"causeway/internal/ftl"
	"causeway/internal/topology"
	"causeway/internal/uuid"
	"causeway/internal/vclock"
)

func testProcess() topology.Process {
	return topology.Process{ID: "p1", Processor: topology.Processor{ID: "cpu0", Type: "x86"}}
}

func newTestProbes(t *testing.T, aspects Aspect) (*Probes, *MemorySink) {
	t.Helper()
	sink := &MemorySink{}
	p, err := New(Config{
		Process: testProcess(),
		Aspects: aspects,
		Clock:   vclock.NewVirtual(),
		Meter:   cputime.NewVirtualMeter(func() uint64 { return 1 }),
		Sink:    sink,
		Chains:  &uuid.SequentialGenerator{Seed: 99},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, sink
}

func op(name string) OpID {
	return OpID{Component: "comp", Interface: "Iface", Operation: name, Object: "obj1"}
}

// callSync simulates a full remote synchronous invocation, running the
// server side on a separate goroutine (its own TSS slot), with body invoked
// inside the skeleton.
func callSync(p *Probes, name string, body func()) {
	ctx := p.StubStart(op(name), false)
	wire := ctx.Wire
	reply := make(chan ftl.FTL, 1)
	go func() {
		sctx := p.SkelStart(op(name), wire, false)
		if body != nil {
			body()
		}
		reply <- p.SkelEnd(sctx)
	}()
	p.StubEnd(ctx, <-reply)
}

// callOneway simulates an asynchronous invocation; done is closed when the
// server side completes.
func callOneway(p *Probes, name string, body func()) <-chan struct{} {
	ctx := p.StubStart(op(name), true)
	wire := ctx.Wire
	done := make(chan struct{})
	go func() {
		defer close(done)
		sctx := p.SkelStart(op(name), wire, true)
		if body != nil {
			body()
		}
		p.SkelEnd(sctx)
	}()
	p.StubEnd(ctx, ftl.FTL{})
	return done
}

func eventTrace(recs []Record) []string {
	var out []string
	for _, r := range recs {
		if r.Kind != KindEvent {
			continue
		}
		out = append(out, r.Op.Operation+"."+r.Event.String())
	}
	return out
}

// TestTable1Sibling reproduces Table 1's sibling pattern: main calls F then
// G; the event chain interleaves nothing.
func TestTable1Sibling(t *testing.T) {
	p, sink := newTestProbes(t, 0)
	callSync(p, "F", nil)
	callSync(p, "G", nil)
	p.Tunnel().Clear()

	want := []string{
		"F.stub_start", "F.skel_start", "F.skel_end", "F.stub_end",
		"G.stub_start", "G.skel_start", "G.skel_end", "G.stub_end",
	}
	got := eventTrace(sink.Snapshot())
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("sibling trace:\n got %v\nwant %v", got, want)
	}
	// Both calls share one chain with gap-free increasing seq 1..8.
	recs := sink.Snapshot()
	chain := recs[0].Chain
	for i, r := range recs {
		if r.Chain != chain {
			t.Fatalf("record %d on different chain", i)
		}
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d seq = %d, want %d", i, r.Seq, i+1)
		}
	}
}

// TestTable1ParentChild reproduces Table 1's nesting pattern F→G→H.
func TestTable1ParentChild(t *testing.T) {
	p, sink := newTestProbes(t, 0)
	callSync(p, "F", func() {
		callSync(p, "G", func() {
			callSync(p, "H", nil)
		})
	})
	p.Tunnel().Clear()

	want := []string{
		"F.stub_start", "F.skel_start",
		"G.stub_start", "G.skel_start",
		"H.stub_start", "H.skel_start", "H.skel_end", "H.stub_end",
		"G.skel_end", "G.stub_end",
		"F.skel_end", "F.stub_end",
	}
	got := eventTrace(sink.Snapshot())
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("nesting trace:\n got %v\nwant %v", got, want)
	}
	for i, r := range sink.Snapshot() {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d seq = %d, want %d", i, r.Seq, i+1)
		}
	}
}

// TestFigure1ProbeOrder verifies the chronological probe activation order
// 1→2→3→4 for a single synchronous invocation.
func TestFigure1ProbeOrder(t *testing.T) {
	p, sink := newTestProbes(t, AspectLatency)
	callSync(p, "F", nil)
	p.Tunnel().Clear()

	recs := sink.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	for i, r := range recs {
		if got := r.Event.ProbeNumber(); got != i+1 {
			t.Fatalf("record %d is probe %d, want %d", i, got, i+1)
		}
		if r.WallEnd.Before(r.WallStart) {
			t.Fatalf("record %d window negative", i)
		}
		if i > 0 && recs[i].WallStart.Before(recs[i-1].WallEnd) {
			t.Fatalf("probe %d started before probe %d finished", i+1, i)
		}
	}
}

func TestOnewayForksChildChain(t *testing.T) {
	p, sink := newTestProbes(t, 0)
	done := callOneway(p, "F", nil)
	<-done
	p.Tunnel().Clear()

	recs := sink.Snapshot()
	var links []Record
	byChain := map[uuid.UUID][]Record{}
	for _, r := range recs {
		if r.Kind == KindLink {
			links = append(links, r)
			continue
		}
		byChain[r.Chain] = append(byChain[r.Chain], r)
	}
	if len(links) != 1 {
		t.Fatalf("got %d link records, want 1", len(links))
	}
	link := links[0]
	if len(byChain) != 2 {
		t.Fatalf("got %d chains, want 2", len(byChain))
	}
	parent := byChain[link.LinkParent]
	child := byChain[link.LinkChild]
	if len(parent) != 2 || parent[0].Event != ftl.StubStart || parent[1].Event != ftl.StubEnd {
		t.Fatalf("parent chain events: %v", eventTrace(parent))
	}
	if len(child) != 2 || child[0].Event != ftl.SkelStart || child[1].Event != ftl.SkelEnd {
		t.Fatalf("child chain events: %v", eventTrace(child))
	}
	if link.LinkParentSeq != parent[0].Seq {
		t.Fatalf("link parent seq %d, want %d", link.LinkParentSeq, parent[0].Seq)
	}
	if !parent[0].Oneway || !child[0].Oneway {
		t.Fatal("oneway flag not set")
	}
}

func TestCollocatedDegeneratedProbes(t *testing.T) {
	p, sink := newTestProbes(t, AspectLatency)
	ctx := p.CollocStart(op("F"))
	p.CollocEnd(ctx)
	p.Tunnel().Clear()

	recs := sink.Snapshot()
	want := []string{"F.stub_start", "F.skel_start", "F.skel_end", "F.stub_end"}
	if got := eventTrace(recs); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("collocated trace: %v", got)
	}
	// Degenerated probes share a single activation window.
	if recs[0].WallStart != recs[1].WallStart {
		t.Error("stub_start and skel_start have different windows")
	}
	if recs[2].WallStart != recs[3].WallStart {
		t.Error("skel_end and stub_end have different windows")
	}
	for _, r := range recs {
		if !r.Collocated {
			t.Error("collocated flag not set")
		}
	}
}

// TestCollocatedNestedInRemote: a remote call whose implementation makes a
// collocated child call; the chain must stay gap-free.
func TestCollocatedNestedInRemote(t *testing.T) {
	p, sink := newTestProbes(t, 0)
	callSync(p, "F", func() {
		ctx := p.CollocStart(op("G"))
		p.CollocEnd(ctx)
	})
	p.Tunnel().Clear()

	for i, r := range sink.Snapshot() {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d seq = %d, want %d (trace %v)",
				i, r.Seq, i+1, eventTrace(sink.Snapshot()))
		}
	}
}

func TestAspectConflictRejected(t *testing.T) {
	_, err := New(Config{
		Process: testProcess(),
		Aspects: AspectLatency | AspectCPU,
		Sink:    &MemorySink{},
	})
	if err != ErrAspectConflict {
		t.Fatalf("err = %v, want ErrAspectConflict", err)
	}
}

func TestMissingSinkRejected(t *testing.T) {
	if _, err := New(Config{Process: testProcess()}); err == nil {
		t.Fatal("config without sink accepted")
	}
}

func TestCausalityAlwaysCaptured(t *testing.T) {
	// Even with no aspects armed, causality records flow.
	p, sink := newTestProbes(t, 0)
	callSync(p, "F", nil)
	p.Tunnel().Clear()
	recs := sink.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("got %d records", len(recs))
	}
	for _, r := range recs {
		if r.Chain.IsNil() || r.Seq == 0 {
			t.Fatal("causality fields missing")
		}
		if !r.WallStart.IsZero() || !r.WallEnd.IsZero() {
			t.Fatal("latency fields set although aspect disarmed")
		}
		if r.CPUStart != 0 || r.CPUEnd != 0 {
			t.Fatal("CPU fields set although aspect disarmed")
		}
	}
}

func TestCPUAspectRecordsReadings(t *testing.T) {
	sink := &MemorySink{}
	meter := cputime.NewVirtualMeter(func() uint64 { return 7 })
	p, err := New(Config{
		Process: testProcess(),
		Aspects: AspectCPU,
		Meter:   meter,
		Sink:    sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	meter.Charge(5 * time.Millisecond)
	ctx := p.CollocStart(op("F"))
	meter.Charge(3 * time.Millisecond)
	p.CollocEnd(ctx)
	p.Tunnel().Clear()

	recs := sink.Snapshot()
	if recs[0].CPUStart != 5*time.Millisecond {
		t.Errorf("start CPU = %v", recs[0].CPUStart)
	}
	if recs[2].CPUStart != 8*time.Millisecond {
		t.Errorf("end-probe CPU = %v", recs[2].CPUStart)
	}
}

func TestNoAnnotationLeaks(t *testing.T) {
	p, _ := newTestProbes(t, 0)
	done := callOneway(p, "A", nil)
	<-done
	callSync(p, "B", nil)
	p.Tunnel().Clear()
	if got := p.Tunnel().Annotated(); got != 0 {
		t.Fatalf("%d annotations leaked", got)
	}
}

func TestStreamSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	ss := NewStreamSink(&buf)
	p, err := New(Config{Process: testProcess(), Sink: ss, Chains: &uuid.SequentialGenerator{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := p.CollocStart(op("F"))
	p.CollocEnd(ctx)
	p.Tunnel().Clear()
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("round-tripped %d records, want 4", len(recs))
	}
	if recs[0].Op.Operation != "F" || recs[0].Event != ftl.StubStart {
		t.Fatalf("first record: %+v", recs[0])
	}
}

func TestTeeAndCountingSinks(t *testing.T) {
	mem := &MemorySink{}
	cnt := &CountingSink{}
	tee := TeeSink{mem, cnt}
	tee.Append(Record{Kind: KindEvent})
	tee.Append(Record{Kind: KindEvent})
	if mem.Len() != 2 || cnt.Count() != 2 {
		t.Fatalf("tee delivered %d/%d", mem.Len(), cnt.Count())
	}
	mem.Reset()
	if mem.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
}

// The four probes of a sync call with no ORB around them. Not named
// BenchmarkSyncCallProbePath: that is the root package's whole-call
// benchmark, and CI's bench smoke step runs both packages under one
// -bench pattern.
func BenchmarkSyncCallProbesOnly(b *testing.B) {
	sink := &CountingSink{}
	p, err := New(Config{Process: testProcess(), Sink: sink})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx := p.StubStart(op("F"), false)
		sctx := p.SkelStart(op("F"), ctx.Wire, false)
		reply := p.SkelEnd(sctx)
		p.StubEnd(ctx, reply)
	}
	p.Tunnel().Clear()
}

func BenchmarkCollocatedProbePath(b *testing.B) {
	sink := &CountingSink{}
	p, err := New(Config{Process: testProcess(), Sink: sink})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx := p.CollocStart(op("F"))
		p.CollocEnd(ctx)
	}
	p.Tunnel().Clear()
}
