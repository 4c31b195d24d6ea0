package telemetry

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"causeway/internal/analysis"
	"causeway/internal/logdb"
	"causeway/internal/online"
	"causeway/internal/probe"
	"causeway/internal/render"
	"causeway/internal/uuid"
)

// driveProcess runs `calls` three-level synchronous call trees through a
// real probe set belonging to one simulated process, emitting into sink.
func driveProcess(t *testing.T, name string, seed uint64, calls int, sink probe.Sink) {
	t.Helper()
	p, err := probe.New(probe.Config{
		Process: testProc(name),
		Sink:    sink,
		Chains:  &uuid.SequentialGenerator{Seed: seed},
	})
	if err != nil {
		t.Error(err)
		return
	}
	op := func(n string) probe.OpID {
		return probe.OpID{Component: "comp", Interface: "I", Operation: n, Object: "o"}
	}
	var call func(name string, body func())
	call = func(name string, body func()) {
		ctx := p.StubStart(op(name), false)
		sctx := p.SkelStart(op(name), ctx.Wire, false)
		if body != nil {
			body()
		}
		p.StubEnd(ctx, p.SkelEnd(sctx))
	}
	for i := 0; i < calls; i++ {
		call("root", func() {
			call("mid", func() { call("leaf", nil) })
			call("mid2", nil)
		})
		p.Tunnel().Clear()
	}
}

// TestConcurrentIngestMatchesOffline is the networked analog of the online
// package's equivalence property: many simulated processes hammer one
// telemetry server concurrently (through real shippers over TCP loopback),
// and after drain the DSCG reconstructed from the server's merged store is
// identical to the one reconstructed from each process's local memory
// sink. An online monitor rides the server's ingest path and must observe
// every completed root. Run under -race in CI.
func TestConcurrentIngestMatchesOffline(t *testing.T) {
	const procs = 6
	const callsPerProc = 40

	var liveRoots atomic.Int64
	monitor := online.NewMonitor(online.Config{
		OnRoot: func(online.RootEvent) { liveRoots.Add(1) },
		OnAnomaly: func(a analysis.Anomaly) {
			t.Errorf("online anomaly during ingest: %v", a)
		},
	})
	store := logdb.NewStore()
	srv, err := Listen("127.0.0.1:0", ServerConfig{Sinks: []probe.Sink{probe.StoreSink{Store: store}, monitor}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	locals := make([]*probe.MemorySink, procs)
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		locals[i] = &probe.MemorySink{}
		name := fmt.Sprintf("proc-%d", i)
		sh := fastShipper(t, srv.Addr(), name, 1<<15)
		wg.Add(1)
		go func(i int, sh *ShipperSink) {
			defer wg.Done()
			driveProcess(t, name, uint64(1000*(i+1)), callsPerProc, probe.TeeSink{locals[i], sh})
			if err := sh.Close(); err != nil {
				t.Error(err)
			}
			if st := sh.Stats(); st.Dropped != 0 {
				t.Errorf("%s dropped %d records; equivalence needs lossless delivery", name, st.Dropped)
			}
		}(i, sh)
	}
	wg.Wait()

	// Offline truth: merge the local sinks.
	offline := logdb.NewStore()
	for _, l := range locals {
		offline.Insert(l.Snapshot()...)
	}
	if offline.Len() != store.Len() {
		t.Fatalf("server store has %d records, local sinks have %d", store.Len(), offline.Len())
	}

	renderDSCG := func(db *logdb.Store) string {
		g := analysis.Reconstruct(db)
		if len(g.Anomalies) != 0 {
			t.Fatalf("anomalies: %v", g.Anomalies[0])
		}
		var buf bytes.Buffer
		if err := render.DSCGText(&buf, g, -1, 0); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if networked, local := renderDSCG(store), renderDSCG(offline); networked != local {
		t.Fatalf("networked DSCG differs from per-process-sink DSCG:\n--- networked ---\n%s\n--- local ---\n%s", networked, local)
	}
	if got, want := liveRoots.Load(), int64(procs*callsPerProc); got != want {
		t.Fatalf("online monitor saw %d roots through the ingest path, want %d", got, want)
	}
	if monitor.OpenChains() != 0 {
		t.Fatalf("%d chains still open after drain", monitor.OpenChains())
	}
}

// TestManyShippersStats exercises handshake bookkeeping under concurrent
// connections.
func TestManyShippersStats(t *testing.T) {
	var connected atomic.Int64
	srv, err := Listen("127.0.0.1:0", ServerConfig{OnConnect: func(Peer) { connected.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := fastShipper(t, srv.Addr(), fmt.Sprintf("p%d", i), 64)
			sh.Append(testRecord(fmt.Sprintf("p%d", i), 1))
			sh.Close()
		}(i)
	}
	wg.Wait()
	waitFor(t, func() bool { return srv.Stats().Peers == 8 }, "all handshakes")
	if connected.Load() != 8 {
		t.Fatalf("OnConnect fired %d times, want 8", connected.Load())
	}
	if len(srv.Peers()) != 8 {
		t.Fatalf("peers = %d, want 8", len(srv.Peers()))
	}
	if n := srv.Stats().Records; n != 8 {
		t.Fatalf("records = %d, want 8", n)
	}
}
