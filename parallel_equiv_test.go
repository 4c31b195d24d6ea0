// Equivalence tests for parallel DSCG reconstruction: the worker-pool
// path must produce byte-identical characterization output (DSCG text,
// CCSG XML) on the repo's two reference workloads — the PPS printing
// pipeline and the livemonitor-style networked echo deployment.
package causeway_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"causeway"
	"causeway/internal/analysis"
	"causeway/internal/benchgen/instrecho"
	"causeway/internal/cputime"
	"causeway/internal/ftl"
	"causeway/internal/gls"
	"causeway/internal/logdb"
	"causeway/internal/pps"
	"causeway/internal/probe"
	"causeway/internal/render"
	"causeway/internal/telemetry"
	"causeway/internal/transport"
)

// characterize renders the full byte-exact characterization of g.
func characterize(t *testing.T, g *analysis.DSCG) string {
	t.Helper()
	g.ComputeLatency()
	g.ComputeCPU()
	var buf bytes.Buffer
	if err := render.DSCGText(&buf, g, -1, 0); err != nil {
		t.Fatal(err)
	}
	if err := render.CCSGXML(&buf, analysis.BuildCCSG(g)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func assertParallelEquivalent(t *testing.T, db *logdb.Store) {
	t.Helper()
	want := characterize(t, analysis.Reconstruct(db))
	for _, workers := range []int{2, 8} {
		if got := characterize(t, analysis.ReconstructParallel(db, workers)); got != want {
			t.Fatalf("workers=%d: parallel characterization diverges from sequential", workers)
		}
	}
}

// TestParallelEquivalencePPS runs the paper's PPS in the 4-process
// configuration with the CPU aspect armed (so the CCSG carries real
// numbers) and asserts worker-pool reconstruction changes nothing.
func TestParallelEquivalencePPS(t *testing.T) {
	meter := cputime.NewVirtualMeter(gls.GoroutineID)
	pipeline, err := pps.Build(pps.Options{
		Network:      transport.NewInprocNetwork(),
		Layout:       pps.FourProcess(),
		Instrumented: true,
		Aspects:      probe.AspectCPU,
		MeterFor:     func(string) cputime.Meter { return meter },
		Work:         func(units int) { meter.Charge(time.Duration(units) * time.Millisecond) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pipeline.Shutdown()
	if err := pipeline.RunJobs(4, 2, true); err != nil {
		t.Fatal(err)
	}
	if err := pipeline.AwaitQuiescent(4, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	db := logdb.NewStore()
	db.Insert(pipeline.Records()...)
	assertParallelEquivalent(t, db)
}

// TestParallelEquivalenceLivemonitor mirrors examples/livemonitor: an
// echo server and three clients over TCP loopback ship their records live
// to a collection server, and the merged store must characterize
// identically under sequential and parallel reconstruction.
func TestParallelEquivalenceLivemonitor(t *testing.T) {
	store := logdb.NewStore()
	srv, err := telemetry.Listen("127.0.0.1:0", telemetry.ServerConfig{Sinks: []probe.Sink{probe.StoreSink{Store: store}}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	newProc := func(name string) *causeway.Process {
		p, err := causeway.NewProcess(causeway.ProcessConfig{
			Name:         name,
			Instrumented: true,
			Monitor:      causeway.MonitorLatency,
			ShipTo:       srv.Addr(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	server := newProc("server")
	if err := instrecho.RegisterEcho(server.ORB, "svc", "svc-comp", echoOK{}); err != nil {
		t.Fatal(err)
	}
	ep, err := server.ORB.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	procs := []*causeway.Process{server}
	for c := 1; c <= 3; c++ {
		client := newProc(fmt.Sprintf("client-%d", c))
		procs = append(procs, client)
		stub := instrecho.NewEchoStub(client.ORB.RefTo(ep, "svc", "Echo", "svc-comp"))
		for i := 1; i <= 5; i++ {
			if _, err := stub.Echo(fmt.Sprintf("c%d-req-%d", c, i)); err != nil {
				t.Fatal(err)
			}
			client.NewChain()
		}
	}
	for _, p := range procs {
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if store.Len() == 0 {
		t.Fatal("no records reached the collection server")
	}
	assertParallelEquivalent(t, store)

	// The facade-level parallel path must match the sequential facade too.
	seq := causeway.AnalyzeStore(store)
	par := causeway.AnalyzeSource(store, 8)
	var sb, pb bytes.Buffer
	if err := seq.WriteDSCG(&sb); err != nil {
		t.Fatal(err)
	}
	if err := par.WriteDSCG(&pb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != pb.String() {
		t.Fatal("AnalyzeSource(workers=8) DSCG diverges from AnalyzeStore")
	}
	if seq.Stats != par.Stats {
		t.Fatalf("stats diverge: %+v vs %+v", seq.Stats, par.Stats)
	}
}

// TestParallelEquivalenceBrokenChains damages the PPS workload's log —
// deleting every record of one probe-event class at a time — and asserts
// the worker-pool path still characterizes byte-identically, including the
// broken-chain warnings and '!' markers the damaged log produces.
func TestParallelEquivalenceBrokenChains(t *testing.T) {
	pipeline, err := pps.Build(pps.Options{
		Network:      transport.NewInprocNetwork(),
		Layout:       pps.FourProcess(),
		Instrumented: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pipeline.Shutdown()
	if err := pipeline.RunJobs(3, 2, true); err != nil {
		t.Fatal(err)
	}
	if err := pipeline.AwaitQuiescent(3, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	records := pipeline.Records()

	for _, ev := range []ftl.Event{ftl.StubStart, ftl.SkelStart, ftl.SkelEnd, ftl.StubEnd} {
		t.Run(ev.String(), func(t *testing.T) {
			db := logdb.NewStore()
			for _, r := range records {
				if r.Kind == probe.KindEvent && r.Event == ev {
					continue
				}
				db.Insert(r)
			}
			assertParallelEquivalent(t, db)
			g := analysis.Reconstruct(db)
			if len(g.Broken)+len(g.Anomalies) == 0 {
				t.Fatalf("deleting every %s record produced no warnings or anomalies", ev)
			}
		})
	}
}

// echoOK is a minimal echo servant for the livemonitor-style test.
type echoOK struct{}

func (echoOK) Echo(payload string) (string, error) { return "echo:" + payload, nil }
func (echoOK) Sum(values []int32) (int32, error)   { return 0, nil }
func (echoOK) Fire(string) error                   { return nil }
