package streamrecon

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"causeway/internal/analysis"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/topology"
	"causeway/internal/uuid"
)

// TestConcurrentAppendAcrossProcesses hammers one shared Monitor from many
// goroutines, each acting as an independent simulated process with its own
// probe set — the §6 management deployment where every process of the
// application feeds the same live monitor. Afterwards the offline analyzer
// over the same records must agree on root count and see no anomalies.
// Run under -race in CI.
func TestConcurrentAppendAcrossProcesses(t *testing.T) {
	const procs = 8
	const callsPerProc = 50

	var roots atomic.Int64
	monitor := NewMonitor(Config{
		OnRoot: func(RootEvent) { roots.Add(1) },
		OnAnomaly: func(a analysis.Anomaly) {
			t.Errorf("live anomaly: %v", a)
		},
	})

	locals := make([]*probe.MemorySink, procs)
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		locals[i] = &probe.MemorySink{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("proc-%d", i)
			p, err := probe.New(probe.Config{
				Process: topology.Process{ID: name, Processor: topology.Processor{ID: name, Type: "x86"}},
				Sink:    probe.TeeSink{locals[i], monitor},
				Chains:  &uuid.SequentialGenerator{Seed: uint64(i + 1)},
			})
			if err != nil {
				t.Error(err)
				return
			}
			op := func(n string) probe.OpID { return probe.OpID{Interface: "I", Operation: n} }
			call := func(n string, body func()) {
				ctx := p.StubStart(op(n), false)
				sctx := p.SkelStart(op(n), ctx.Wire, false)
				if body != nil {
					body()
				}
				p.StubEnd(ctx, p.SkelEnd(sctx))
			}
			for c := 0; c < callsPerProc; c++ {
				call("top", func() { call("inner", nil) })
				p.Tunnel().Clear()
			}
		}(i)
	}
	wg.Wait()

	if got, want := roots.Load(), int64(procs*callsPerProc); got != want {
		t.Fatalf("monitor completed %d roots, want %d", got, want)
	}
	if monitor.OpenChains() != 0 {
		t.Fatalf("%d chains open after quiescence", monitor.OpenChains())
	}

	// The offline analyzer over the identical records agrees.
	db := logdb.NewStore()
	for _, l := range locals {
		db.Insert(l.Snapshot()...)
	}
	g := analysis.Reconstruct(db)
	if len(g.Anomalies) != 0 {
		t.Fatalf("offline anomalies: %v", g.Anomalies[0])
	}
	offlineRoots := 0
	for _, tr := range g.Trees {
		offlineRoots += len(tr.Roots)
	}
	if offlineRoots != procs*callsPerProc {
		t.Fatalf("offline roots = %d, want %d", offlineRoots, procs*callsPerProc)
	}
}
