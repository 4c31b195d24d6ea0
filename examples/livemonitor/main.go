// Live-monitoring example, networked edition — the paper's §6 future-work
// direction ("apply the global causality capturing technique from the
// on-line perspective for application-level system management") combined
// with live telemetry shipping (internal/telemetry, cmd/collectd).
//
// One in-binary collection daemon listens on TCP loopback. Four monitored
// ORB processes — one echo server and three clients — each ship their
// probe records to it live (ProcessConfig.ShipTo) while also writing their
// own per-process .ftlog. The daemon's chain table (internal/streamrecon)
// stands between its server and its store: it prints completed roots and
// slow calls as they happen, across process boundaries, with no
// quiescent-state collection step, and evicts every chain to the store
// whole the moment it completes — printed live.
//
// At the end the example proves the networked path is lossless: the DSCG
// characterized from the daemon's store is identical to the one the
// offline analyzer derives from the per-process log files.
//
// Run:
//
//	go run ./examples/livemonitor
//
// With -faults the client transports are wrapped in a seeded fault
// injector (internal/faultinject) that drops and disconnects calls; the
// deployment survives on deadlines and idempotent retry, the failed calls
// leave broken chains behind, and the run fails unless the analyzer
// reports them as warnings:
//
//	go run ./examples/livemonitor -faults -seed 7
//
// -rate arms head-consistent chain sampling at the sources; the
// equivalence still holds at any rate, because the probes drop whole
// chains before both the log file and the shipper:
//
//	go run ./examples/livemonitor -rate 0.5
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"causeway"
	"causeway/internal/benchgen/instrecho"
	"causeway/internal/cluster"
	"causeway/internal/debugserver"
	"causeway/internal/faultinject"
	"causeway/internal/logdb"
	"causeway/internal/streamrecon"
	"causeway/internal/telemetry"
)

// variableServant answers echo calls, sometimes slowly.
type variableServant struct{ calls atomic.Int64 }

func (s *variableServant) Echo(payload string) (string, error) {
	n := s.calls.Add(1)
	if n%3 == 0 {
		// Every third call drags: the live monitor must flag it.
		deadline := time.Now().Add(25 * time.Millisecond)
		x := 0
		for time.Now().Before(deadline) {
			x++
		}
		_ = x
	}
	return "echo:" + payload, nil
}
func (s *variableServant) Sum(values []int32) (int32, error) { return 0, nil }
func (s *variableServant) Fire(string) error                 { return nil }

// selfScrape probes the deployment's own debug endpoint: /healthz must
// answer ok and /metrics must serve a non-empty exposition. It returns
// the number of causeway_ series it saw.
func selfScrape(addr string) (int, error) {
	get := func(path string) (string, error) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("GET %s: %s", path, resp.Status)
		}
		return string(body), nil
	}
	health, err := get("/healthz")
	if err != nil {
		return 0, err
	}
	if strings.TrimSpace(health) != "ok" {
		return 0, fmt.Errorf("/healthz said %q, want ok", health)
	}
	exposition, err := get("/metrics")
	if err != nil {
		return 0, err
	}
	series := 0
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "causeway_") {
			series++
		}
	}
	if series == 0 {
		return 0, fmt.Errorf("/metrics exposition is empty")
	}
	fmt.Printf("\ndebug: /healthz ok, /metrics exposes %d series at http://%s/metrics\n", series, addr)
	return series, nil
}

func main() {
	faults := flag.Bool("faults", false, "inject deterministic drops and disconnects into the client transports")
	seed := flag.Int64("seed", 1, "fault-injection base seed (per-client seeds derive from it)")
	rate := flag.Float64("rate", 1, "head-consistent chain sampling rate at the sources, in (0, 1]")
	clusterN := flag.Int("cluster", 0, "ship through an N-collector ingest tier sharded by chain hash (0/1 = single collector)")
	killAfter := flag.Int("kill-after", 0, "with -cluster: kill one collector after this many client calls; automated membership must evict it, shippers must re-route, and the final merge must still be lossless (0 = off)")
	slo := flag.Duration("slo", 0, "arm an over-tight chain-latency SLO (this objective) on the server process, drive traffic until it fires, print the exemplar chain UUID, and prove it resolves after traffic stops (0 = off)")
	sloLinger := flag.Duration("slo-linger", 0, "with -slo: keep the deployment (and /alertz) up this long after the alert fires, for external pollers")
	debugAddr := flag.String("debug", "127.0.0.1:0", "server process debug address (/metrics, /statusz, /alertz)")
	outPath := flag.String("out", "", "write the collected store as a merged .ftlog here at exit")
	flag.Parse()
	if *rate <= 0 || *rate > 1 {
		fmt.Fprintln(os.Stderr, "livemonitor: -rate must be in (0, 1]")
		os.Exit(1)
	}
	if *killAfter > 0 && *clusterN < 2 {
		fmt.Fprintln(os.Stderr, "livemonitor: -kill-after needs -cluster with at least 2 collectors")
		os.Exit(1)
	}
	if _, err := run(runConfig{
		faults: *faults, seed: *seed, rate: *rate,
		clusterN: *clusterN, killAfter: *killAfter,
		slo: *slo, sloLinger: *sloLinger, debugAddr: *debugAddr, outPath: *outPath,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "livemonitor:", err)
		os.Exit(1)
	}
}

// runConfig carries the flag set into run.
type runConfig struct {
	faults    bool
	seed      int64
	rate      float64
	clusterN  int
	killAfter int
	slo       time.Duration
	sloLinger time.Duration
	debugAddr string
	outPath   string
}

// summary is what a run established, for callers (the package's test)
// that assert on it instead of reading the printed lines.
type summary struct {
	Warnings       int // analyzer warnings: broken chains left by failed calls
	Series         int // causeway_ series the mid-run /metrics self-scrape saw
	Records        int // records in the collected store
	RetainedChains int // chains in the collected store (what head sampling kept)
	// The fleet merge, with -cluster: tier size, records accepted into the
	// fleet store, records rejected as already held, and chains found on
	// two collectors (legitimate only across a kill).
	Collectors, MergedRecords, Duplicates, StraddlingChains int
}

func run(rc runConfig) (sum summary, err error) {
	faults, seed, rate, clusterN, killAfter :=
		rc.faults, rc.seed, rc.rate, rc.clusterN, rc.killAfter
	dir, err := os.MkdirTemp("", "livemonitor")
	if err != nil {
		return sum, err
	}
	defer os.RemoveAll(dir)

	// One metrics registry shared by every in-binary process and the
	// monitor: the compensated chain latencies the monitor observes into
	// it are what the server's SLO evaluator (-slo) burns against.
	reg := causeway.NewMetricsRegistry()

	// The collection daemon: its chain table stands between the server and
	// the store, so slow calls surface while the application is still
	// running, and each chain lands in the store whole, the moment it
	// completes.
	var slowCount, rootCount atomic.Int64
	table := streamrecon.Config{
		Metrics:    reg,
		Quiescence: 50 * time.Millisecond,
		OnRoot: func(ev streamrecon.RootEvent) {
			rootCount.Add(1)
			if ev.Root.Broken {
				fmt.Printf("live: %s::%s broken on chain %s: %s\n",
					ev.Root.Op().Interface, ev.Root.Op().Operation, ev.Chain.Short(), ev.Root.BrokenReason)
				return
			}
			fmt.Printf("live: %s::%s completed on chain %s (latency %v)\n",
				ev.Root.Op().Interface, ev.Root.Op().Operation, ev.Chain.Short(),
				ev.Root.Latency.Round(time.Microsecond))
		},
		OnSlow: func(ev streamrecon.RootEvent) {
			slowCount.Add(1)
			fmt.Printf("live: SLOW CALL %s::%s took %v (threshold 10ms) — a management layer would react here\n",
				ev.Root.Op().Interface, ev.Root.Op().Operation, ev.Root.Latency.Round(time.Microsecond))
		},
		SlowThreshold: 10 * time.Millisecond,
		OnComplete: func(c streamrecon.Completion) {
			status := c.Reason
			if c.Slow {
				status += " SLOW"
			}
			if c.Broken {
				status += " broken"
			}
			fmt.Printf("stream: chain %s evicted whole — %s::%s, %d node(s), %s\n",
				c.Chain.Short(), c.Op.Interface, c.Op.Operation, c.Nodes, status)
		},
	}

	// The collectors — one, or an ingest tier of -cluster N — are the same
	// cluster.Node cmd/collectd runs, each over its own in-memory store.
	nodes := make([]*cluster.Node, max(clusterN, 1))
	stores := make([]*logdb.Store, len(nodes))
	var tierAddrs []string
	for i := range nodes {
		stores[i] = logdb.NewStore()
		node, err := cluster.StartNode(cluster.NodeConfig{
			Listen: "127.0.0.1:0",
			Store:  stores[i],
			Table:  table,
			OnConnect: func(p telemetry.Peer) {
				fmt.Printf("collector: process %q (%s) connected\n", p.Process, p.ProcType)
			},
		})
		if err != nil {
			return sum, err
		}
		defer node.Close()
		nodes[i] = node
		tierAddrs = append(tierAddrs, node.Addr())
		fmt.Printf("collector: listening on %s", node.Addr())
		if rate < 1 {
			fmt.Printf(" (head sampling rate %g)", rate)
		}
		fmt.Printf("\n")
	}
	store := stores[0]

	// The collectors own no goroutine; the deployment ticks them.
	tickStop, tickDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(tickDone)
		ticker := time.NewTicker(10 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-tickStop:
				return
			case <-ticker.C:
				for _, node := range nodes {
					node.Tick()
				}
			}
		}
	}()
	var once sync.Once
	stopTicks := func() { // idempotent: stops the tick driver
		once.Do(func() {
			close(tickStop)
			<-tickDone
		})
	}
	defer stopTicks()

	// The ring computed over the full address list shards chains across
	// the tier; it is known only once every collector is listening, and
	// the shippers learn it from any member's handshake.
	if clusterN > 1 {
		r, err := cluster.Assign(1, cluster.DefaultSlots, cluster.Members(tierAddrs...))
		if err != nil {
			return sum, err
		}
		for _, node := range nodes {
			node.SetRing(r)
		}
		fmt.Printf("cluster: ingest tier of %d collectors, ring %s\n", clusterN, r)
	}

	// Automated-failover demo (-kill-after): every collector gets its own
	// debug plane and starts its membership, heartbeating the others. When
	// the kill fires mid-run, the survivors must notice on their own,
	// propose the next ring epoch without the dead member, donate the
	// ranges that moved between them, and the shippers must re-route — no
	// operator action, and the end-of-run equivalence proof below must
	// still hold.
	var killNow func() error
	if killAfter > 0 {
		// Debug planes first — memberships probe each other's /healthz and
		// /memberz, so every address must exist before any of them starts.
		dbgs := make([]*debugserver.Server, len(nodes))
		debugMap := make(map[string]string, len(nodes))
		for i, node := range nodes {
			dbg, err := debugserver.Start(debugserver.Config{
				Addr:     "127.0.0.1:0",
				Process:  fmt.Sprintf("collector-%d", i+1),
				ProcType: "collector",
				Aspects:  "collection",
				Extra:    node.Handlers(),
			})
			if err != nil {
				return sum, err
			}
			defer dbg.Close()
			dbgs[i] = dbg
			debugMap[node.Addr()] = dbg.Addr()
		}
		for i, node := range nodes {
			if err := node.StartMembership(cluster.MembershipConfig{
				Members:      cluster.Members(tierAddrs...),
				DebugAddrs:   debugMap,
				Interval:     50 * time.Millisecond,
				SuspectAfter: 3,
				OnEvent:      func(ev string) { fmt.Printf("membership[%d]: %s\n", i+1, ev) },
			}); err != nil {
				return sum, err
			}
		}
		fmt.Printf("cluster: automated membership armed on %d collectors (heartbeat 50ms, suspect after 3 misses)\n", clusterN)

		victim := clusterN - 1
		killNow = func() error {
			fmt.Printf("\nkill: stopping collector %s mid-run\n", tierAddrs[victim])
			nodes[victim].Close()
			dbgs[victim].Close()
			// Wait for the survivors to serve a ring without it.
			deadline := time.Now().Add(10 * time.Second)
			for {
				converged := 0
				for _, node := range nodes[:victim] {
					r := node.Ring()
					if _, still := cluster.MemberByID(r, tierAddrs[victim]); r.Epoch >= 2 && !still {
						converged++
					}
				}
				if converged == clusterN-1 {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("membership never evicted the dead collector")
				}
				time.Sleep(5 * time.Millisecond)
			}
			fmt.Printf("kill: survivors converged on a post-kill ring with no operator action\n\n")
			return nil
		}
	}
	fmt.Printf("\n")

	// Four monitored processes over real TCP loopback: one echo server and
	// three clients, every one shipping its records to the collector live
	// while also writing its own .ftlog. All four are in one binary, so they
	// share one metrics registry; the echo server mounts the deployment's
	// debug endpoint over it.
	serverCfg := causeway.ProcessConfig{
		Name:            "server",
		Instrumented:    true,
		Monitor:         causeway.MonitorLatency,
		LogPath:         filepath.Join(dir, "server.ftlog"),
		Metrics:         reg,
		DebugAddr:       rc.debugAddr,
		ShipTo:          strings.Join(tierAddrs, ","),
		ChainSampleRate: rate,
	}
	if rc.slo > 0 {
		// An over-tight objective on the monitor's compensated Echo chain
		// latency: with small windows the burst below fires it in a couple
		// of seconds, and /alertz carries the offending chain UUIDs.
		serverCfg.SLO = []causeway.SLORule{{
			Name:         "echo-latency",
			Iface:        "Echo",
			Objective:    rc.slo,
			Target:       0.9,
			FastWindow:   500 * time.Millisecond,
			SlowWindow:   2 * time.Second,
			Burn:         1,
			ResolveAfter: 500 * time.Millisecond,
		}}
		serverCfg.SLOInterval = 50 * time.Millisecond
	}
	server, err := causeway.NewProcess(serverCfg)
	if err != nil {
		return sum, err
	}
	defer server.Close()
	if err := instrecho.RegisterEcho(server.ORB, "svc", "svc-comp", &variableServant{}); err != nil {
		return sum, err
	}
	ep, err := server.ORB.ListenTCP("127.0.0.1:0")
	if err != nil {
		return sum, err
	}

	const clients, callsPerClient = 3, 6
	if killAfter >= clients*callsPerClient {
		return sum, fmt.Errorf("-kill-after %d never fires: the run makes %d calls", killAfter, clients*callsPerClient)
	}
	callCount := 0
	procs := []*causeway.Process{server}
	var injectors []*faultinject.Injector
	failures := 0
	for c := 1; c <= clients; c++ {
		cfg := causeway.ProcessConfig{
			Name:            fmt.Sprintf("client-%d", c),
			Instrumented:    true,
			Monitor:         causeway.MonitorLatency,
			LogPath:         filepath.Join(dir, fmt.Sprintf("client-%d.ftlog", c)),
			Metrics:         reg,
			ShipTo:          strings.Join(tierAddrs, ","),
			ChainSampleRate: rate,
		}
		if faults {
			// One seeded injector per client keeps the schedule fully
			// deterministic: sequential calls draw from a private stream.
			inj := faultinject.New(faultinject.Plan{
				Seed:           seed + int64(c),
				DropProb:       0.35,
				DisconnectProb: 0.15,
			})
			cfg.WrapClient = inj.WrapClient
			cfg.CallTimeout = 100 * time.Millisecond
			cfg.Retry = causeway.RetryPolicy{Attempts: 2, Backoff: 5 * time.Millisecond}
			injectors = append(injectors, inj)
		}
		client, err := causeway.NewProcess(cfg)
		if err != nil {
			return sum, err
		}
		defer client.Close()
		procs = append(procs, client)
		ref := client.ORB.RefTo(ep, "svc", "Echo", "svc-comp")
		ref.Idempotent = true // echo is repeat-safe: opt into the retry policy
		stub := instrecho.NewEchoStub(ref)
		for i := 1; i <= callsPerClient; i++ {
			if _, err := stub.Echo(fmt.Sprintf("c%d-req-%d", c, i)); err != nil {
				if !faults {
					return sum, err
				}
				// Under injection a call may exhaust its retry budget;
				// the deployment carries on and the failure's partial
				// probe trace becomes a broken-chain warning below.
				failures++
				fmt.Printf("client-%d: call %d failed under injection: %v\n", c, i, err)
			}
			client.NewChain()
			callCount++
			if killNow != nil && callCount == killAfter {
				if err := killNow(); err != nil {
					return sum, err
				}
			}
		}
	}

	if len(injectors) > 0 {
		// The injected faults count themselves into /metrics, summed across
		// the per-client injectors into one series family.
		reg.RegisterSource("faultinject", func(w io.Writer) {
			faultinject.WriteMetricsMulti(w, injectors...)
		})
	}

	// Mid-run introspection: while the deployment is still up, its own
	// debug endpoint must answer. CI greps the line this prints, and an
	// empty exposition fails the run outright.
	if sum.Series, err = selfScrape(server.DebugAddr()); err != nil {
		return sum, err
	}

	// SLO demonstration (-slo): keep calling until the burn-rate alert on
	// the server fires, capture its exemplar chain UUID, optionally linger
	// for external /alertz pollers, then stop the traffic and require the
	// alert to resolve. The exemplar chain must survive into the collected
	// store — that's what lets an operator walk from the alert to the DSCG.
	var sloChain string
	if rc.slo > 0 {
		fmt.Printf("\nslo: chain-latency objective %v armed on Echo (fast 500ms / slow 2s windows); driving traffic until it fires\n", rc.slo)
		client := procs[1]
		ref := client.ORB.RefTo(ep, "svc", "Echo", "svc-comp")
		ref.Idempotent = true
		stub := instrecho.NewEchoStub(ref)
		deadline := time.Now().Add(60 * time.Second)
		for {
			if _, err := stub.Echo("slo-probe"); err != nil && !faults {
				return sum, err
			}
			client.NewChain()
			if firing := server.Alerts().Firing(); len(firing) > 0 {
				al := firing[0]
				chains := make([]string, 0, len(al.Exemplars))
				for _, ex := range al.Exemplars {
					chains = append(chains, ex.Chain)
				}
				fmt.Printf("slo: FIRING %s [%s] fast %.2fx slow %.2fx burn, exemplars %s\n",
					al.Rule, al.Family, al.FastBurn, al.SlowBurn, strings.Join(chains, ","))
				if len(al.Exemplars) == 0 {
					return sum, fmt.Errorf("slo alert fired with no exemplar chains")
				}
				sloChain = al.Exemplars[0].Chain
				break
			}
			if time.Now().After(deadline) {
				return sum, fmt.Errorf("slo alert never fired against objective %v", rc.slo)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if rc.sloLinger > 0 {
			fmt.Printf("slo: lingering %v with /alertz live at http://%s/alertz\n", rc.sloLinger, server.DebugAddr())
			time.Sleep(rc.sloLinger)
		}
		// Traffic has stopped: with no new bad-minute observations both
		// windows burn to zero and ResolveAfter hysteresis must resolve it.
		resolveDeadline := time.Now().Add(30 * time.Second)
		for {
			st := server.Alerts().Status(0)
			if len(st.Alerts) > 0 && st.Alerts[0].State == "resolved" {
				fmt.Printf("slo: RESOLVED %s after traffic stopped\n", st.Alerts[0].Rule)
				break
			}
			if time.Now().After(resolveDeadline) {
				return sum, fmt.Errorf("slo alert never resolved after traffic stopped")
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// After a kill, wait until every shipper routes by the post-kill ring
	// with an empty buffer: records bound for the dead member sit buffered
	// until a poll re-routes them, and draining mid-re-route would
	// count them dropped.
	if killAfter > 0 {
		deadline := time.Now().Add(10 * time.Second)
		for _, p := range procs {
			for {
				r, ok := p.ClusterRing()
				st := p.ShipperStats()
				if ok && r.Epoch >= 2 && st.Buffered == 0 {
					break
				}
				if time.Now().After(deadline) {
					return sum, fmt.Errorf("a shipper never re-routed after the kill (epoch %d, %d buffered)", r.Epoch, st.Buffered)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
		fmt.Printf("kill: every shipper re-routed; draining\n")
	}

	// Shut the processes down: each Close drains its shipper (bounded) and
	// flushes its log file. Then stop the collectors and drain their tables.
	for _, p := range procs {
		stats := p.ShipperStats()
		if err := p.Close(); err != nil {
			return sum, err
		}
		if stats.Dropped != 0 {
			fmt.Printf("warning: a shipper dropped %d records under backpressure\n", stats.Dropped)
		}
	}
	// Give quiescence-based completion a chance to evict every chain
	// cleanly; then each collector's Close drains whatever is left (broken
	// remnants under -faults) into its store, so the store holds everything
	// that arrived.
	open := func() int {
		n := 0
		for _, node := range nodes {
			n += node.Table().OpenChains()
		}
		return n
	}
	for deadline := time.Now().Add(5 * time.Second); open() > 0 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	stopTicks()
	evicted, flushed := 0, 0
	var tier cluster.Ledger
	for _, node := range nodes {
		before := node.Table().Completions()
		if err := node.Close(); err != nil {
			return sum, err
		}
		flushed += int(node.Table().Completions() - before)
		evicted += int(node.Table().Completions())
		if led := node.Table().Ledger(); led.Appended != led.Persisted {
			return sum, fmt.Errorf("collector %s lost records: appended %d, persisted %d", node.ID(), led.Appended, led.Persisted)
		}
		tier = tier.Add(node.Ledger())
	}
	if flushed > 0 {
		fmt.Printf("stream: drain flushed %d still-open chain(s)\n", flushed)
	}
	fmt.Printf("\nstream: %d chain(s) evicted; ledger %s\n", evicted, tier)

	fmt.Printf("\n%d roots completed live, %d of %d calls flagged slow; open chains at shutdown: %d\n",
		rootCount.Load(), slowCount.Load(), clients*callsPerClient, open())

	// In cluster mode, first fold the per-collector partials into one
	// fleet store and prove the sharding was clean: every chain landed
	// whole on exactly one collector, so the merge sees zero duplicates.
	if clusterN > 1 {
		fleet := logdb.NewStore()
		owner := make(map[string]string)
		splitChains, merged, totalDups := 0, 0, 0
		for i, st := range stores {
			for _, c := range st.Chains() {
				if prev, ok := owner[c.String()]; ok {
					// After a kill a chain may legitimately sit on two
					// collectors — the dead one and the range's new owner, or
					// a donor and the survivor it donated to. Without a kill
					// it means the sharding is broken.
					if killAfter == 0 {
						return sum, fmt.Errorf("chain %s split between collectors %s and %s", c.Short(), prev, tierAddrs[i])
					}
					splitChains++
					continue
				}
				owner[c.String()] = tierAddrs[i]
			}
			var buf bytes.Buffer
			if err := logdb.WriteRecords(st, &buf); err != nil {
				return sum, err
			}
			acc, dups, err := cluster.MergeStream(fleet, &buf)
			if err != nil {
				return sum, fmt.Errorf("merge collector %s: %w", tierAddrs[i], err)
			}
			// Duplicates across collectors mean double-counting — except
			// after a kill, where a record acked just as the collector died
			// is re-shipped to the new owner and donors keep a copy of what
			// they donated; identity dedup absorbs both.
			if dups != 0 && killAfter == 0 {
				return sum, fmt.Errorf("collector %s overlapped %d record(s) with the rest of the tier", tierAddrs[i], dups)
			}
			merged += acc
			totalDups += dups
			fmt.Printf("cluster: collector %s held %d record(s) across %d chain(s)\n", tierAddrs[i], acc, len(st.Chains()))
		}
		sum.Collectors, sum.MergedRecords = clusterN, merged
		sum.Duplicates, sum.StraddlingChains = totalDups, splitChains
		fmt.Printf("cluster: fleet store merged %d record(s) from %d collectors, %d duplicate(s)\n", sum.MergedRecords, clusterN, totalDups)
		if killAfter > 0 {
			fmt.Printf("cluster: kill recovery: %d chain(s) straddle the kill epoch, %d re-shipped or donated record(s) deduplicated\n", splitChains, totalDups)
		}
		store = fleet
	}

	// The alert's exemplar chain must be present in the collected store:
	// the whole point of exemplar-linked alerting is that the p99 spike
	// resolves to a causal chain an operator can render.
	if sloChain != "" {
		found := false
		for _, c := range store.Chains() {
			if c.String() == sloChain {
				found = true
				break
			}
		}
		if !found {
			return sum, fmt.Errorf("slo exemplar chain %s was not retained in the collected store", sloChain)
		}
		fmt.Printf("slo: exemplar chain %s retained in the collected store (`causectl show %s` renders it)\n", sloChain, sloChain[:8])
	}
	if rc.outPath != "" {
		if err := logdb.SaveFile(store, rc.outPath); err != nil {
			return sum, err
		}
		fmt.Printf("store: merged .ftlog written to %s\n", rc.outPath)
	}

	// Equivalence proof: the live-merged store characterizes identically to
	// the per-process log files the offline analyzer was built for.
	networked := causeway.AnalyzeStore(store)
	offline, err := causeway.AnalyzeFiles(filepath.Join(dir, "*.ftlog"))
	if err != nil {
		return sum, err
	}
	var nb, ob bytes.Buffer
	if err := networked.WriteDSCG(&nb); err != nil {
		return sum, err
	}
	if err := offline.WriteDSCG(&ob); err != nil {
		return sum, err
	}
	if nb.String() != ob.String() {
		return sum, fmt.Errorf("networked DSCG differs from per-process-file DSCG")
	}
	sum.Warnings, sum.RetainedChains = networked.Warnings, len(networked.Graph.Trees)
	sum.Records = networked.Stats.Records
	fmt.Printf("\nnetworked collection is lossless: DSCG from the collected store (%d records) == DSCG from %d per-process logs\n",
		networked.Stats.Records, len(procs))
	if rate < 1 {
		// Sampling drops whole chains at the sources, before both the log
		// file and the shipper — which is exactly why the equivalence
		// above survives any rate.
		fmt.Printf("sampling: head rate %g retained %d of %d chains, head-consistently\n",
			rate, sum.RetainedChains, clients*callsPerClient)
	}
	if faults {
		fmt.Printf("\nfault injection: %d call(s) failed; analyzer reports %d warning(s), %d broken chain(s), %d anomalies\n",
			failures, networked.Warnings, len(networked.Graph.Broken), len(networked.Graph.Anomalies))
		for _, b := range networked.Graph.Broken {
			fmt.Printf("  ! %s\n", b)
		}
		if networked.Warnings == 0 {
			return sum, fmt.Errorf("fault injection left no broken-chain warnings; reconstruction hid the failures")
		}
	}
	fmt.Println("\nDynamic System Call Graph (live-collected):")
	_, err = os.Stdout.Write(nb.Bytes())
	return sum, err
}
