package pps

import (
	"testing"
	"time"

	"causeway/internal/analysis"
	"causeway/internal/cputime"
	"causeway/internal/gls"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/transport"
)

func buildPipeline(t testing.TB, opts Options) *Pipeline {
	t.Helper()
	if opts.Network == nil {
		opts.Network = transport.NewInprocNetwork()
	}
	if opts.Work == nil {
		opts.Work = func(int) {} // no CPU burn in unit tests
	}
	p, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	return p
}

func reconstructPipeline(t testing.TB, p *Pipeline) *analysis.DSCG {
	t.Helper()
	db := logdb.NewStore()
	db.Insert(p.Records()...)
	return analysis.Reconstruct(db)
}

func TestPipelineProcessesJobsFourProcess(t *testing.T) {
	p := buildPipeline(t, Options{Instrumented: true, Layout: FourProcess()})
	const jobs = 3
	if err := p.RunJobs(jobs, 2, true); err != nil {
		t.Fatal(err)
	}
	if err := p.AwaitQuiescent(jobs, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	for id := int32(1); id <= jobs; id++ {
		st, err := p.Tracker.Status(id)
		if err != nil || st != "done" {
			t.Fatalf("job %d status = %q, %v", id, st, err)
		}
		p.ClientORB.Probes().Tunnel().Clear()
	}

	g := reconstructPipeline(t, p)
	if len(g.Anomalies) != 0 {
		t.Fatalf("%d anomalies, first: %v", len(g.Anomalies), g.Anomalies[0])
	}
	// Each job chain: submit(record, notify!, spool(record, [per page:
	// interpret, render, convert, halftone, compress, mark], finish,
	// record)) plus the status query = its own chain.
	// jobs chains from Submit + jobs chains from Status queries.
	if len(g.Trees) != 2*jobs {
		t.Fatalf("trees = %d, want %d", len(g.Trees), 2*jobs)
	}
	// Count per-op nodes for one consistency probe: each job with 2 pages
	// marks 2 sheets.
	marks := 0
	g.Walk(func(n *analysis.Node) {
		if n.Op().Operation == "mark" {
			marks++
		}
	})
	if marks != jobs*2 {
		t.Fatalf("mark invocations = %d, want %d", marks, jobs*2)
	}
	// Cross-process deployment: the chain spans all 4 pipeline processes.
	procs := map[string]bool{}
	g.Walk(func(n *analysis.Node) { procs[n.ServerProcess()] = true })
	for _, want := range []string{"pps0", "pps1", "pps2", "pps3"} {
		if !procs[want] {
			t.Errorf("no invocation executed on %s (got %v)", want, procs)
		}
	}
}

func TestPipelineMonolithicUsesCollocation(t *testing.T) {
	p := buildPipeline(t, Options{Instrumented: true, Layout: Monolithic()})
	if err := p.RunJobs(1, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := p.AwaitQuiescent(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	g := reconstructPipeline(t, p)
	if len(g.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", g.Anomalies)
	}
	colloc, remote := 0, 0
	g.Walk(func(n *analysis.Node) {
		if n.Collocated {
			colloc++
		} else if !n.Oneway {
			remote++
		}
	})
	if colloc == 0 {
		t.Fatal("monolithic layout produced no collocated calls")
	}
	// Only the client→submitter hop crosses processes.
	if remote != 1 {
		t.Fatalf("remote calls = %d, want 1 (client→submitter)", remote)
	}
}

func TestPipelineRejectsBadJob(t *testing.T) {
	p := buildPipeline(t, Options{Instrumented: true})
	err := p.RunJobs(1, 0, false) // zero pages
	if err == nil {
		t.Fatal("zero-page job accepted")
	}
}

func TestPipelinePlainProducesNoRecords(t *testing.T) {
	p := buildPipeline(t, Options{Instrumented: false})
	if err := p.RunJobs(2, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := p.AwaitQuiescent(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(p.Records()); got != 0 {
		t.Fatalf("plain pipeline produced %d records", got)
	}
}

func TestPipelineGrayscaleSkipsColorConverter(t *testing.T) {
	p := buildPipeline(t, Options{Instrumented: true})
	if err := p.RunJobs(1, 2, false); err != nil {
		t.Fatal(err)
	}
	g := reconstructPipeline(t, p)
	g.Walk(func(n *analysis.Node) {
		if n.Op().Operation == "convert" {
			t.Error("grayscale job hit the color converter")
		}
	})
}

func TestPipelineCPUAccounting(t *testing.T) {
	// Deterministic CPU: one shared virtual meter charged per work unit;
	// DC at the root must equal total charged (invariant I4 at system
	// scale).
	meter := cputime.NewVirtualMeter(gls.GoroutineID)
	p := buildPipeline(t, Options{
		Instrumented: true,
		Aspects:      probe.AspectCPU,
		Layout:       FourProcess(),
		MeterFor:     func(string) cputime.Meter { return meter },
		Work:         func(units int) { meter.Charge(time.Duration(units) * time.Millisecond) },
	})
	if err := p.RunJobs(1, 1, true); err != nil {
		t.Fatal(err)
	}
	if err := p.AwaitQuiescent(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	g := reconstructPipeline(t, p)
	if len(g.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", g.Anomalies)
	}
	g.ComputeCPU()
	var total time.Duration
	for _, v := range g.TotalCPU() {
		total += v
	}
	if total != meter.Total() {
		t.Fatalf("DSCG total CPU %v != charged %v", total, meter.Total())
	}
	c := analysis.BuildCCSG(g)
	if c.Nodes() == 0 {
		t.Fatal("empty CCSG")
	}
}

func TestLayoutValidation(t *testing.T) {
	bad := FourProcess()
	delete(bad, CompRenderer)
	if _, err := Build(Options{Network: transport.NewInprocNetwork(), Layout: bad}); err == nil {
		t.Fatal("incomplete layout accepted")
	}
	if _, err := Build(Options{}); err == nil {
		t.Fatal("missing network accepted")
	}
}
