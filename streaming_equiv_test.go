// Equivalence and sampling-invariant tests for the streaming pipeline:
// streaming DSCG reconstruction (internal/streamrecon) must characterize
// byte-identically to batch ReconstructParallel on the repo's two
// reference workloads, head sampling at rate 1.0 must change nothing,
// and at rate < 1.0 the retained chain set must be exactly the chains
// the head decision keeps — whole chains, never halves, across process
// boundaries and under transport fault injection.
package causeway_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"causeway"
	"causeway/internal/analysis"
	"causeway/internal/benchgen/instrecho"
	"causeway/internal/cluster"
	"causeway/internal/faultinject"
	"causeway/internal/logdb"
	"causeway/internal/pps"
	"causeway/internal/probe"
	"causeway/internal/sampling"
	"causeway/internal/streamrecon"
	"causeway/internal/topology"
	"causeway/internal/transport"
	"causeway/internal/uuid"
)

// stepClock is a manually advanced clock for driving the assembler's
// quiescence windows deterministically.
type stepClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *stepClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// assertStreamingEquivalent feeds records through a streaming assembler
// in interleaved chunks — ticking between chunks, as collectd's
// reporting loop does — and asserts the evicted store characterizes
// byte-identically to batch reconstruction over the same records.
func assertStreamingEquivalent(t *testing.T, records []probe.Record) {
	t.Helper()
	batch := logdb.NewStore()
	batch.Insert(records...)
	want := characterize(t, analysis.ReconstructParallel(batch, 4))

	stream := logdb.NewStore()
	clk := &stepClock{now: time.Unix(1000, 0)}
	asm, err := streamrecon.New(streamrecon.Config{
		Store:      stream,
		Quiescence: 50 * time.Millisecond,
		Clock:      clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range records {
		asm.Append(r)
		if i%11 == 10 {
			clk.Advance(10 * time.Millisecond)
			asm.Tick()
		}
	}
	clk.Advance(time.Second)
	asm.Tick()
	if open := asm.OpenChains(); open != 0 {
		t.Fatalf("%d chains still open after full quiescence", open)
	}
	led := asm.Ledger()
	if led.Buffered != 0 || led.Persisted != uint64(len(records)) {
		t.Fatalf("ledger %+v, want all %d records persisted", led, len(records))
	}
	if got := characterize(t, analysis.ReconstructParallel(stream, 4)); got != want {
		t.Fatal("streaming characterization diverges from batch")
	}
}

// TestStreamingEquivalencePPS: the paper's PPS workload, streamed.
func TestStreamingEquivalencePPS(t *testing.T) {
	pipeline, err := pps.Build(pps.Options{
		Network:      transport.NewInprocNetwork(),
		Layout:       pps.FourProcess(),
		Instrumented: true,
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
	assertStreamingEquivalent(t, pipeline.Records())
}

// TestStreamingEquivalenceLivemonitor rides the true streaming path: a
// collector (the cluster.Node collectd runs) takes a networked echo
// deployment's records through its chain table into its store, and once
// quiescence has evicted every chain that store must characterize
// identically to the records the processes themselves kept.
func TestStreamingEquivalenceLivemonitor(t *testing.T) {
	stream := logdb.NewStore()
	node, err := cluster.StartNode(cluster.NodeConfig{
		Listen: "127.0.0.1:0",
		Store:  stream,
		Table:  streamrecon.Config{Quiescence: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	newProc := func(name string) *causeway.Process {
		p, err := causeway.NewProcess(causeway.ProcessConfig{
			Name:         name,
			Instrumented: true,
			Monitor:      causeway.MonitorLatency,
			ShipTo:       node.Addr(),
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
	batch := logdb.NewStore()
	for _, p := range procs {
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if st := p.ShipperStats(); st.Dropped != 0 {
			t.Fatalf("a process dropped %d records; equivalence needs lossless delivery", st.Dropped)
		}
		batch.Insert(asShipped(t, p.Records())...)
	}

	// Tick until quiescence has evicted every chain (real clock).
	table := node.Table()
	deadline := time.Now().Add(10 * time.Second)
	for table.OpenChains() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d chains never evicted; ledger %+v", table.OpenChains(), table.Ledger())
		}
		time.Sleep(5 * time.Millisecond)
		node.Tick()
	}
	node.Tick() // flush any queued links
	if batch.Len() == 0 {
		t.Fatal("the processes recorded nothing")
	}
	led := table.Ledger()
	if led.Buffered != 0 || led.Persisted != uint64(batch.Len()) {
		t.Fatalf("ledger %+v, batch holds %d", led, batch.Len())
	}
	want := characterize(t, analysis.ReconstructParallel(batch, 4))
	if got := characterize(t, analysis.ReconstructParallel(stream, 4)); got != want {
		t.Fatal("live streaming characterization diverges from batch store")
	}
}

// asShipped is recs as a collector receives them: through the record codec
// every ship frame and store segment uses, which keeps a record's wall-clock
// times and drops the monotonic readings a process's own copy carries (and
// latency would be measured by).
func asShipped(t *testing.T, recs []probe.Record) []probe.Record {
	t.Helper()
	var buf bytes.Buffer
	sink := probe.NewStreamSink(&buf)
	for _, r := range recs {
		sink.Append(r)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := probe.ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sampledWorkload drives a fixed probe-level workload — sync calls plus
// oneway forks — under the given head sampler and returns the records.
// The chain generator is seeded, so two runs with the same seed mint the
// same chain UUIDs in the same order.
func sampledWorkload(t *testing.T, seed uint64, s probe.HeadSampler) []probe.Record {
	t.Helper()
	sink := &probe.MemorySink{}
	p, err := probe.New(probe.Config{
		Process: topology.Process{ID: "sampled", Processor: topology.Processor{ID: "sampled", Type: "x86"}},
		Aspects: probe.AspectLatency,
		Sink:    sink,
		Chains:  &uuid.SequentialGenerator{Seed: seed},
		Sampler: s,
	})
	if err != nil {
		t.Fatal(err)
	}
	syncOp := probe.OpID{Component: "c", Interface: "ISampled", Operation: "call", Object: "o"}
	onewayOp := probe.OpID{Component: "c", Interface: "ISampled", Operation: "fire", Object: "o"}
	for i := 0; i < 40; i++ {
		ctx := p.StubStart(syncOp, false)
		sctx := p.SkelStart(syncOp, ctx.Wire, false)
		p.StubEnd(ctx, p.SkelEnd(sctx))
		p.Tunnel().Clear()
		// Every fourth chain forks a oneway child, whose chain UUID gets
		// its own mint but must inherit the parent's sampling decision.
		if i%4 == 0 {
			octx := p.StubStart(onewayOp, true)
			p.StubEnd(octx, octx.Wire)
			sctx := p.SkelStart(onewayOp, octx.Wire, true)
			p.SkelEnd(sctx)
			p.Tunnel().Clear()
		}
	}
	return sink.Snapshot()
}

// chainSets splits records into per-chain event groups and a child →
// parent map from the link records.
func chainSets(records []probe.Record) (map[uuid.UUID][]probe.Record, map[uuid.UUID]uuid.UUID) {
	chains := make(map[uuid.UUID][]probe.Record)
	parents := make(map[uuid.UUID]uuid.UUID)
	for _, r := range records {
		if r.Kind == probe.KindLink {
			parents[r.LinkChild] = r.LinkParent
			continue
		}
		chains[r.Chain] = append(chains[r.Chain], r)
	}
	return chains, parents
}

// TestHeadSamplingRateOneChangesNothing: rate 1.0 must be a no-op — the
// exact record stream of an unsampled run, field for field.
func TestHeadSamplingRateOneChangesNothing(t *testing.T) {
	plain := sampledWorkload(t, 11, nil)
	rated := sampledWorkload(t, 11, sampling.Fixed(1))
	if len(plain) != len(rated) {
		t.Fatalf("rate 1.0 changed the record count: %d vs %d", len(rated), len(plain))
	}
	for i := range plain {
		p, r := plain[i], rated[i]
		if p.Kind != r.Kind || p.Chain != r.Chain || p.Seq != r.Seq || p.Event != r.Event || p.Op != r.Op {
			t.Fatalf("record %d diverges:\n plain %+v\n rated %+v", i, p, r)
		}
	}
}

// TestHeadSamplingExactChainSet: at rate < 1 the emitted chain set is
// exactly the chains the head decision keeps — root chains by the
// deterministic hash test, oneway children by inheritance — and every
// emitted chain is complete (all of its records, never a partial half).
func TestHeadSamplingExactChainSet(t *testing.T) {
	const rate = 0.5
	full, fullParents := chainSets(sampledWorkload(t, 23, nil))
	got, gotParents := chainSets(sampledWorkload(t, 23, sampling.Fixed(rate)))

	kept := func(chain uuid.UUID) bool {
		if parent, ok := fullParents[chain]; ok {
			// A oneway child rides its parent's decision, not its own hash.
			return sampling.Keep(parent, rate)
		}
		return sampling.Keep(chain, rate)
	}
	dropped := 0
	for chain, fullRecs := range full {
		gotRecs, present := got[chain]
		switch {
		case kept(chain) && !present:
			t.Fatalf("chain %s passes the head decision but was not emitted", chain)
		case !kept(chain) && present:
			t.Fatalf("chain %s fails the head decision but %d records leaked", chain, len(gotRecs))
		case kept(chain) && len(gotRecs) != len(fullRecs):
			t.Fatalf("chain %s half-sampled: %d of %d records", chain, len(gotRecs), len(fullRecs))
		}
		if !kept(chain) {
			dropped++
		}
	}
	for chain := range got {
		if _, ok := full[chain]; !ok {
			t.Fatalf("sampled run emitted chain %s the full run never minted", chain)
		}
	}
	for child, parent := range gotParents {
		if !sampling.Keep(parent, rate) {
			t.Fatalf("link %s→%s emitted for a dropped parent", parent, child)
		}
	}
	if dropped == 0 {
		t.Fatalf("rate %g dropped nothing across %d chains; test has no power", rate, len(full))
	}
}

// TestStreamingSamplingFaultSeeds is the cross-process propagation
// check: a networked echo deployment under seeded transport fault
// injection, head sampling at rate 0.5, and a drop-all-normal tail
// policy at the collector (a cluster.Node). For each seed: no chain arrives half-sampled
// (a chain's records appear only if its head — or its parent's head —
// kept it), every broken chain that arrived survives the tail policy,
// and the assembler ledger balances.
func TestStreamingSamplingFaultSeeds(t *testing.T) {
	for _, seed := range []int64{1, 1234, 987654321} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const rate = 0.5
			retained := logdb.NewStore()
			node, err := cluster.StartNode(cluster.NodeConfig{
				Listen: "127.0.0.1:0",
				Store:  retained,
				Table: streamrecon.Config{
					Quiescence: 20 * time.Millisecond,
					Tail:       &sampling.TailPolicy{NormalRate: 0},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer node.Close()

			server, err := causeway.NewProcess(causeway.ProcessConfig{
				Name:         "server",
				Instrumented: true,
				Monitor:      causeway.MonitorLatency,
				ShipTo:       node.Addr(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := instrecho.RegisterEcho(server.ORB, "svc", "svc-comp", echoOK{}); err != nil {
				t.Fatal(err)
			}
			ep, err := server.ORB.ListenTCP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			procs := []*causeway.Process{server}
			for c := 1; c <= 2; c++ {
				inj := faultinject.New(faultinject.Plan{
					Seed:           seed + int64(c),
					DropProb:       0.35,
					DisconnectProb: 0.15,
				})
				client, err := causeway.NewProcess(causeway.ProcessConfig{
					Name:            fmt.Sprintf("client-%d", c),
					Instrumented:    true,
					Monitor:         causeway.MonitorLatency,
					ShipTo:          node.Addr(),
					ChainSampleRate: rate,
					WrapClient:      inj.WrapClient,
					CallTimeout:     100 * time.Millisecond,
					Retry:           causeway.RetryPolicy{Attempts: 2, Backoff: 5 * time.Millisecond},
				})
				if err != nil {
					t.Fatal(err)
				}
				procs = append(procs, client)
				ref := client.ORB.RefTo(ep, "svc", "Echo", "svc-comp")
				ref.Idempotent = true
				stub := instrecho.NewEchoStub(ref)
				for i := 1; i <= 8; i++ {
					if _, err := stub.Echo(fmt.Sprintf("c%d-%d", c, i)); err != nil {
						t.Logf("client-%d call %d failed under injection: %v", c, i, err)
					}
					client.NewChain()
					if i%3 == 0 {
						_ = stub.Fire(fmt.Sprintf("c%d-fire-%d", c, i))
						client.NewChain()
					}
				}
			}
			// What arrived at the collector is what the processes shipped:
			// their own records, none dropped on the way.
			arrivals := logdb.NewStore()
			for _, p := range procs {
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
				if st := p.ShipperStats(); st.Dropped != 0 {
					t.Fatalf("a process dropped %d records before they reached the collector", st.Dropped)
				}
				arrivals.Insert(p.Records()...)
			}
			if err := node.Close(); err != nil {
				t.Fatal(err)
			}

			chains, parents := chainSets(arrivalRecords(arrivals))
			if len(chains) == 0 {
				t.Fatal("nothing arrived at the collector")
			}
			// Head consistency across processes: a chain's records arrive
			// only when its head decision (or its oneway parent's) kept it.
			for chain := range chains {
				if parent, ok := parents[chain]; ok {
					if !sampling.Keep(parent, rate) {
						t.Fatalf("child chain %s arrived under a dropped parent %s", chain, parent)
					}
					continue
				}
				if !sampling.Keep(chain, rate) {
					t.Fatalf("chain %s fails the head decision but arrived", chain)
				}
			}
			// Tail retention: broken/anomalous chains always survive the
			// drop-all-normal policy; clean chains never do.
			for chain, recs := range chains {
				parsed := analysis.ParseChainEvents(chain, recs)
				clean := !parsed.Empty && len(parsed.Broken) == 0 && len(parsed.Anomalies) == 0
				retainedRecs := retained.Events(chain)
				if clean && len(retainedRecs) != 0 {
					t.Fatalf("clean chain %s survived a drop-all tail policy", chain)
				}
				if !clean && len(retainedRecs) != len(recs) {
					t.Fatalf("broken chain %s: retained %d of %d records", chain, len(retainedRecs), len(recs))
				}
			}
			led := node.Table().Ledger()
			if led.Buffered != 0 || led.Appended != led.Persisted+led.Discarded {
				t.Fatalf("assembler ledger does not balance: %+v", led)
			}
			t.Logf("seed %d: %d chains arrived, ledger %+v", seed, len(chains), led)
		})
	}
}

// arrivalRecords flattens a logdb store back into a record slice.
func arrivalRecords(db *logdb.Store) []probe.Record {
	var out []probe.Record
	out = append(out, db.Links()...)
	for _, c := range db.Chains() {
		out = append(out, db.Events(c)...)
	}
	return out
}
