// Equivalence tests for the tiered collector cluster: a workload fanned
// across a 3-collector ingest tier, then merged, must characterize
// byte-identically to a single collector holding every record — in the
// steady state on the repo's two reference workloads, and across a
// collector killed and rejoined mid-run with its hash ranges replayed
// from segments under seeded schedules. Conservation rides along:
// replayed chains are counted exactly once, and the tier ledger balances
// with sum(Replayed) == sum(Retired).
package causeway_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"causeway"
	"causeway/internal/analysis"
	"causeway/internal/benchgen/instrecho"
	"causeway/internal/cluster"
	"causeway/internal/logdb"
	"causeway/internal/pps"
	"causeway/internal/probe"
	"causeway/internal/telemetry"
	"causeway/internal/topology"
	"causeway/internal/tracestore"
	"causeway/internal/transport"
)

// clusterWaitFor polls until cond holds; the async hops here are oneway
// ship frames and polls, which settle in milliseconds.
func clusterWaitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// startNode opens one ingest collector the way cmd/collectd does —
// through cluster.Node — over the given store. An empty addr picks an
// ephemeral port; a fixed one is a killed collector coming back, and
// rebinding it can race the kernel releasing it.
func startNode(t *testing.T, addr string, store cluster.Store) *cluster.Node {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var node *cluster.Node
	clusterWaitFor(t, func() bool {
		var err error
		node, err = cluster.StartNode(cluster.NodeConfig{Listen: addr, Store: store})
		return err == nil
	}, "binding collector address "+addr)
	return node
}

// heldBy is what a collector holds: its store, plus the records its chain
// table keeps for the store until their chains complete — what the store
// holds once the node drains (Close).
func heldBy(n *cluster.Node, store cluster.Store) int {
	return store.Len() + int(n.Table().Ledger().Buffered)
}

// drain closes every node, which sends what its chain table still holds to
// its store.
func drain(nodes []*cluster.Node) {
	for _, n := range nodes {
		n.Close()
	}
}

// setRing installs r on every collector of the tier — bumping the epoch
// is how these tests rebalance by hand, exactly as restarting collectd
// with a new -peers list would.
func setRing(nodes []*cluster.Node, r telemetry.Ring) {
	for _, n := range nodes {
		n.SetRing(r)
	}
}

// mergeFleet folds every collector's export stream into one fleet store
// with cluster.MergeStream, as `causectl -peers` does, and returns the
// store with the number of records the merge rejected as already held.
func mergeFleet[S cluster.Store](t *testing.T, stores []S) (fleet *logdb.Store, dups int) {
	t.Helper()
	fleet = logdb.NewStore()
	for _, db := range stores {
		var buf bytes.Buffer
		if err := logdb.WriteRecords(db, &buf); err != nil {
			t.Fatal(err)
		}
		_, d, err := cluster.MergeStream(fleet, &buf)
		if err != nil {
			t.Fatal(err)
		}
		dups += d
	}
	return fleet, dups
}

// fanoutConfig is a shipper routing by ring: fast flushes and a tight
// poll so rebalances propagate within a few milliseconds.
func fanoutConfig(name string, ring telemetry.Ring) telemetry.ShipperConfig {
	return telemetry.ShipperConfig{
		Ring:          ring,
		Process:       topology.Process{ID: name, Processor: topology.Processor{ID: name, Type: "x86"}},
		BufferSize:    8192,
		FlushInterval: 2 * time.Millisecond,
		BackoffMin:    5 * time.Millisecond,
		BackoffMax:    50 * time.Millisecond,
		DrainTimeout:  5 * time.Second,
		PollInterval:  5 * time.Millisecond,
	}
}

// ppsRecords runs the paper's PPS workload once in the 4-process layout
// and returns its record log.
func ppsRecords(t *testing.T) []probe.Record {
	t.Helper()
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
	return pipeline.Records()
}

// assertChainsWhole asserts chain-range ownership held: every chain's
// events (and its links, which route by parent) sit on exactly the
// collector the ring assigns, never split across two.
func assertChainsWhole(t *testing.T, ring telemetry.Ring, addrs []string, stores []*logdb.Store) {
	t.Helper()
	for i, db := range stores {
		for _, chain := range db.Chains() {
			m, ok := ring.OwnerOf(chain)
			if !ok || m.ID != addrs[i] {
				t.Fatalf("chain %s landed on %s but the ring assigns %q", chain, addrs[i], m.ID)
			}
			for j, other := range stores {
				if j != i && len(other.Events(chain)) > 0 {
					t.Fatalf("chain %s split across %s and %s", chain, addrs[i], addrs[j])
				}
			}
		}
		for _, l := range db.Links() {
			if m, ok := ring.OwnerOf(l.LinkParent); !ok || m.ID != addrs[i] {
				t.Fatalf("link of parent %s landed on %s but the ring assigns %q", l.LinkParent, addrs[i], m.ID)
			}
		}
	}
}

// TestClusterEquivalencePPS: the paper's PPS workload fanned across a
// 3-collector tier. Every chain lands whole on its ring owner, the
// steady-state merge sees zero duplicates, and the fleet DSCG is
// byte-identical to the single-collector baseline.
func TestClusterEquivalencePPS(t *testing.T) {
	records := ppsRecords(t)
	baseline := logdb.NewStore()
	baseline.Insert(records...)
	want := characterize(t, analysis.ReconstructParallel(baseline, 4))

	var nodes []*cluster.Node
	var stores []*logdb.Store
	var addrs []string
	for i := 0; i < 3; i++ {
		db := logdb.NewStore()
		node := startNode(t, "", db)
		defer node.Close()
		nodes = append(nodes, node)
		stores = append(stores, db)
		addrs = append(addrs, node.Addr())
	}
	ring, err := cluster.Assign(1, cluster.DefaultSlots, cluster.Members(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	setRing(nodes, ring)

	rs, err := telemetry.NewShipper(fanoutConfig("pps-fan", ring))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		rs.Append(r)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	st := rs.Stats()
	if st.Dropped != 0 || st.Appended != uint64(len(records)) {
		t.Fatalf("router lost records: %+v over %d records", st, len(records))
	}
	total := func() int {
		n := 0
		for i, db := range stores {
			n += heldBy(nodes[i], db)
		}
		return n
	}
	clusterWaitFor(t, func() bool { return total() == len(records) }, "cluster ingest of the PPS workload")
	drain(nodes)
	assertChainsWhole(t, ring, addrs, stores)

	for i, db := range stores {
		if db.Len() == 0 {
			t.Fatalf("collector %s ingested nothing; slot spans too coarse for the workload", addrs[i])
		}
	}
	fleet, dups := mergeFleet(t, stores)
	if dups != 0 {
		t.Fatalf("steady-state merge rejected %d duplicates", dups)
	}
	if fleet.Len() != len(records) {
		t.Fatalf("fleet store holds %d of %d records", fleet.Len(), len(records))
	}
	if got := characterize(t, analysis.ReconstructParallel(fleet, 4)); got != want {
		t.Fatal("fleet characterization diverges from the single-collector baseline")
	}
}

// TestClusterEquivalenceLivemonitor rides the facade path: a networked
// echo deployment where every process names all three live collectors in
// ShipTo, and the merged fleet view must characterize
// identically to one store holding everything that arrived.
func TestClusterEquivalenceLivemonitor(t *testing.T) {
	var nodes []*cluster.Node
	var stores []*logdb.Store
	var addrs []string
	for i := 0; i < 3; i++ {
		db := logdb.NewStore()
		node := startNode(t, "", db)
		defer node.Close()
		nodes = append(nodes, node)
		stores = append(stores, db)
		addrs = append(addrs, node.Addr())
	}
	ring, err := cluster.Assign(1, cluster.DefaultSlots, cluster.Members(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	setRing(nodes, ring)

	newProc := func(name string) *causeway.Process {
		p, err := causeway.NewProcess(causeway.ProcessConfig{
			Name:         name,
			Instrumented: true,
			Monitor:      causeway.MonitorLatency,
			ShipTo:       strings.Join(addrs, ","),
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
	var shipped uint64
	for _, p := range procs {
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		st := p.ShipperStats()
		if st.Dropped != 0 || st.Buffered != 0 {
			t.Fatalf("process shipper lost records: %+v", st)
		}
		shipped += st.Shipped
	}
	if shipped == 0 {
		t.Fatal("nothing shipped to the cluster")
	}
	total := func() int {
		n := 0
		for i, db := range stores {
			n += heldBy(nodes[i], db)
		}
		return n
	}
	clusterWaitFor(t, func() bool { return total() == int(shipped) }, "cluster ingest of the echo workload")
	drain(nodes)
	assertChainsWhole(t, ring, addrs, stores)

	// The single-collector view is the union of arrivals — what one
	// collector would hold had every process shipped to it alone.
	union := logdb.NewStore()
	for _, db := range stores {
		union.Insert(arrivalRecords(db)...)
	}
	want := characterize(t, analysis.ReconstructParallel(union, 4))

	fleet, dups := mergeFleet(t, stores)
	if dups != 0 {
		t.Fatalf("steady-state merge rejected %d duplicates", dups)
	}
	if fleet.Len() != int(shipped) {
		t.Fatalf("fleet store holds %d of %d shipped records", fleet.Len(), shipped)
	}
	if got := characterize(t, analysis.ReconstructParallel(fleet, 4)); got != want {
		t.Fatal("fleet characterization diverges from the single-collector union")
	}
}

// TestClusterEquivalenceShipToOneMember: a process that names one member
// of a two-collector tier still routes by the ring that member serves. The
// echo server ships to collector A only and its client to collector B
// only, yet each chain — client and server records alike — lands whole on
// its ring owner.
func TestClusterEquivalenceShipToOneMember(t *testing.T) {
	var nodes []*cluster.Node
	var stores []*logdb.Store
	var addrs []string
	for i := 0; i < 2; i++ {
		db := logdb.NewStore()
		node := startNode(t, "", db)
		defer node.Close()
		nodes = append(nodes, node)
		stores = append(stores, db)
		addrs = append(addrs, node.Addr())
	}
	ring, err := cluster.Assign(1, cluster.DefaultSlots, cluster.Members(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	setRing(nodes, ring)

	newProc := func(name, shipTo string) *causeway.Process {
		p, err := causeway.NewProcess(causeway.ProcessConfig{
			Name:         name,
			Instrumented: true,
			Monitor:      causeway.MonitorLatency,
			ShipTo:       shipTo,
		})
		if err != nil {
			t.Fatal(err)
		}
		// A span appended before the served ring arrives rides the
		// provisional one-member ring to the collector the process names.
		if _, ok := p.ClusterRing(); !ok {
			t.Fatalf("process %s ships but routes by no ring", name)
		}
		clusterWaitFor(t, func() bool {
			r, _ := p.ClusterRing()
			return r.Epoch == ring.Epoch
		}, name+" to adopt the ring its collector serves")
		return p
	}
	server := newProc("server", addrs[0])
	if err := instrecho.RegisterEcho(server.ORB, "svc", "svc-comp", echoOK{}); err != nil {
		t.Fatal(err)
	}
	ep, err := server.ORB.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := newProc("client", addrs[1])
	stub := instrecho.NewEchoStub(client.ORB.RefTo(ep, "svc", "Echo", "svc-comp"))
	for i := 1; i <= 40; i++ {
		if _, err := stub.Echo(fmt.Sprintf("req-%d", i)); err != nil {
			t.Fatal(err)
		}
		client.NewChain()
	}
	var shipped uint64
	for _, p := range []*causeway.Process{client, server} {
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		st := p.ShipperStats()
		if st.Dropped != 0 || st.Buffered != 0 {
			t.Fatalf("process shipper lost records: %+v", st)
		}
		shipped += st.Shipped
	}
	if shipped != 4*40 {
		t.Fatalf("shipped %d records, want 4 per call over 40 calls", shipped)
	}
	clusterWaitFor(t, func() bool {
		return heldBy(nodes[0], stores[0])+heldBy(nodes[1], stores[1]) == int(shipped)
	}, "tier ingest of the echo workload")
	drain(nodes)
	for i, db := range stores {
		if db.Len() == 0 {
			t.Fatalf("collector %s owns none of the 40 chains", addrs[i])
		}
	}
	assertChainsWhole(t, ring, addrs, stores)
}

// TestClusterKillRejoinReplaySeeds is the rebalance gauntlet: a
// collector is killed mid-run and later rejoins with its old segments,
// with the kill point, rejoin point, victim, and record interleaving all
// drawn from a seeded schedule. Its hash range is replayed forward to
// the survivors and back on rejoin; the fleet DSCG must still match the
// single-collector baseline byte for byte, with every replayed chain
// counted once and the tier ledger balanced.
func TestClusterKillRejoinReplaySeeds(t *testing.T) {
	records := ppsRecords(t)
	baseline := logdb.NewStore()
	baseline.Insert(records...)
	want := characterize(t, analysis.ReconstructParallel(baseline, 4))

	for _, seed := range []int64{1, 1234, 987654321} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			recs := make([]probe.Record, len(records))
			copy(recs, records)
			rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
			// The fault schedule: where in the stream the victim dies and
			// where it rejoins.
			victim := rng.Intn(3)
			cut1 := 1 + rng.Intn(len(recs)/2)
			cut2 := cut1 + 1 + rng.Intn(len(recs)-cut1-1)

			// One survivor keeps its records in memory: a logdb-backed
			// collector must accept replays and donate moved ranges exactly
			// as the disk-backed ones do. (The victim stays on disk — its
			// segments are what survives the kill.)
			memory := (victim + 1) % 3
			dirs := make([]string, 3)
			disks := make([]*tracestore.Store, 3)
			stores := make([]cluster.Store, 3)
			nodes := make([]*cluster.Node, 3)
			addrs := make([]string, 3)
			openIngest := func(i int, addr string) {
				t.Helper()
				if i == memory {
					stores[i] = logdb.NewStore()
				} else {
					ts, err := tracestore.Open(dirs[i], tracestore.Options{Shards: 4})
					if err != nil {
						t.Fatal(err)
					}
					disks[i], stores[i] = ts, ts
				}
				nodes[i] = startNode(t, addr, stores[i])
			}
			base := t.TempDir()
			for i := range dirs {
				dirs[i] = filepath.Join(base, fmt.Sprintf("col%d", i))
				openIngest(i, "")
				addrs[i] = nodes[i].Addr()
			}
			defer func() {
				for i := range nodes {
					nodes[i].Close()
					if disks[i] != nil {
						disks[i].Close()
					}
				}
			}()

			ring1, err := cluster.Assign(1, cluster.DefaultSlots, cluster.Members(addrs...))
			if err != nil {
				t.Fatal(err)
			}
			setRing(nodes, ring1)
			rs, err := telemetry.NewShipper(fanoutConfig("kill-rejoin", ring1))
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()

			survivorLen := func() int {
				n := 0
				for i := range stores {
					if i != victim {
						n += heldBy(nodes[i], stores[i])
					}
				}
				return n
			}

			// Phase 1: all three collectors up.
			for _, r := range recs[:cut1] {
				rs.Append(r)
			}
			clusterWaitFor(t, func() bool {
				return survivorLen()+heldBy(nodes[victim], stores[victim]) == cut1
			}, "phase-1 ingest")

			// Kill the victim mid-run; the survivors take over its range at
			// epoch 2 and the shipper routes by their ring.
			victimLen := heldBy(nodes[victim], stores[victim])
			if err := nodes[victim].Close(); err != nil {
				t.Fatal(err)
			}
			if err := disks[victim].Close(); err != nil {
				t.Fatal(err)
			}
			var survivors []string
			for i, a := range addrs {
				if i != victim {
					survivors = append(survivors, a)
				}
			}
			ring2, err := cluster.Assign(2, cluster.DefaultSlots, cluster.Members(survivors...))
			if err != nil {
				t.Fatal(err)
			}
			setRing(nodes, ring2)
			clusterWaitFor(t, func() bool { return rs.Ring().Epoch == 2 }, "router to adopt the survivor ring")

			// Phase 2: the victim's range lands on its new owners.
			for _, r := range recs[cut1:cut2] {
				rs.Append(r)
			}
			clusterWaitFor(t, func() bool {
				return survivorLen() == cut2-victimLen
			}, "phase-2 ingest on the survivors")

			// Replay the dead collector's segments forward: everything that
			// reached its disk moves to the range's new owners, and its
			// recovered ledger retires exactly what they accept.
			deadStore, err := tracestore.Open(dirs[victim], tracestore.Options{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			deadLed := cluster.RecoverLedger(deadStore)
			if !deadLed.Balanced() || deadLed.Appended != uint64(victimLen) {
				t.Fatalf("recovered ledger %s does not match the %d durable records", deadLed, victimLen)
			}
			var outAccepted, outScanned uint64
			outBySurvivor := make(map[string]uint64)
			for _, target := range survivors {
				res, err := cluster.Replay(cluster.ReplayConfig{
					Source: deadStore,
					Range:  cluster.MovedTo(ring1, ring2, target),
					Target: target,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Rejected != 0 {
					t.Fatalf("fresh forward replay to %s rejected %d records", target, res.Rejected)
				}
				outAccepted += res.Accepted
				outScanned += res.Scanned
				outBySurvivor[target] = res.Accepted
			}
			if outScanned != uint64(victimLen) {
				t.Fatalf("forward replay scanned %d of the victim's %d records", outScanned, victimLen)
			}
			deadLed = deadLed.Retire(outAccepted)
			if err := deadStore.Close(); err != nil {
				t.Fatal(err)
			}

			// Rejoin: the victim comes back on its old address with its old
			// segments, the ring returns to three members at epoch 3, and
			// the survivors replay its reclaimed range back. Records its own
			// segments already hold are rejected by dedup — that rejection
			// is exactly the set replayed out while it was dead, which is
			// how replayed chains end up counted once.
			openIngest(victim, addrs[victim])
			ring3, err := cluster.Assign(3, cluster.DefaultSlots, cluster.Members(addrs...))
			if err != nil {
				t.Fatal(err)
			}
			setRing(nodes, ring3)
			clusterWaitFor(t, func() bool { return rs.Ring().Epoch == 3 }, "router to adopt the rejoin ring")

			var backAccepted uint64
			backBySurvivor := make(map[string]uint64)
			for i := range stores {
				if i == victim {
					continue
				}
				// The range's chains still in the survivor's table go to its
				// store first, as a membership donation sends them.
				nodes[i].Table().EvictWhere(cluster.MovedTo(ring2, ring3, addrs[victim]))
				res, err := cluster.Replay(cluster.ReplayConfig{
					Source: stores[i],
					Range:  cluster.MovedTo(ring2, ring3, addrs[victim]),
					Target: addrs[victim],
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Rejected != outBySurvivor[addrs[i]] {
					t.Fatalf("replay back from %s rejected %d records, want the %d replayed forward",
						addrs[i], res.Rejected, outBySurvivor[addrs[i]])
				}
				backAccepted += res.Accepted
				backBySurvivor[addrs[i]] = res.Accepted
			}

			// Phase 3: full tier again.
			for _, r := range recs[cut2:] {
				rs.Append(r)
			}
			if err := rs.Close(); err != nil {
				t.Fatal(err)
			}
			combined := rs.Stats()
			if combined.Dropped != 0 || combined.Appended != uint64(len(recs)) {
				t.Fatalf("router lost records across the outage: %+v over %d", combined, len(recs))
			}
			if stats := rs.Stats(); stats.NoOwner != 0 || stats.Rebalances < 2 {
				t.Fatalf("router stats implausible: %+v", stats)
			}
			// Physical copies: every record once, plus one extra copy of
			// each record a replay moved (source segments keep theirs).
			expectTotal := len(recs) + int(outAccepted+backAccepted)
			totalLen := func() int { return survivorLen() + heldBy(nodes[victim], stores[victim]) }
			clusterWaitFor(t, func() bool { return totalLen() == expectTotal }, "phase-3 ingest")
			drain(nodes)
			if outAccepted+backAccepted == 0 {
				t.Fatalf("seed %d produced no replay traffic; schedule has no power", seed)
			}

			// Conservation: each survivor's ledger counts forward-replay
			// arrivals as Replayed and retires what the victim accepted
			// back; the reborn victim's ledger continues the recovered one.
			ledgers := make([]cluster.Ledger, 0, 3)
			for i := range stores {
				if i == victim {
					continue
				}
				shipped := uint64(stores[i].Len()) - outBySurvivor[addrs[i]]
				led := cluster.Ledger{Appended: shipped, Persisted: shipped}
				led.Replayed = outBySurvivor[addrs[i]]
				led.Persisted += led.Replayed
				led = led.Retire(backBySurvivor[addrs[i]])
				if !led.Balanced() {
					t.Fatalf("survivor %s ledger unbalanced: %s", addrs[i], led)
				}
				ledgers = append(ledgers, led)
			}
			reborn := uint64(stores[victim].Len()) - uint64(victimLen) - backAccepted
			ledV := deadLed
			ledV.Appended += reborn
			ledV.Persisted += reborn
			ledV.Replayed += backAccepted
			ledV.Persisted += backAccepted
			if !ledV.Balanced() {
				t.Fatalf("victim ledger unbalanced across its death and rebirth: %s", ledV)
			}
			ledgers = append(ledgers, ledV)
			tier := cluster.Sum(ledgers...)
			if !tier.Balanced() {
				t.Fatalf("tier ledger unbalanced after kill/rejoin: %s", tier)
			}
			if tier.Replayed != tier.Retired {
				t.Fatalf("tier replay accounting off: replayed %d, retired %d (%s)",
					tier.Replayed, tier.Retired, tier)
			}

			// The fleet view: dedup absorbs exactly the replay copies, and
			// characterization matches the single-collector baseline.
			fleet, dups := mergeFleet(t, stores)
			if fleet.Len() != len(recs) {
				t.Fatalf("fleet holds %d of %d records after kill/rejoin", fleet.Len(), len(recs))
			}
			if dups != int(outAccepted+backAccepted) {
				t.Fatalf("merge rejected %d duplicates, want the %d replay copies",
					dups, outAccepted+backAccepted)
			}
			if got := characterize(t, analysis.ReconstructParallel(fleet, 4)); got != want {
				t.Fatal("fleet characterization after kill/rejoin diverges from the single-collector baseline")
			}
			t.Logf("seed %d: victim=%d cuts=(%d,%d) replayed out=%d back=%d tier=%s",
				seed, victim, cut1, cut2, outAccepted, backAccepted, tier)
		})
	}
}
