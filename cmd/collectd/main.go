// Command collectd is the live telemetry collection daemon: application
// processes ship their probe records to it over TCP while they run
// (ProcessConfig.ShipTo, through a telemetry.ShipperSink routing by the
// ring: a collector without -peers is a one-member ring), and every
// record takes one path: the chain table (internal/streamrecon), then a
// merged relational store. The table reconstructs causality live —
// printing completed roots, slow calls, and anomalies as they happen — and
// evicts each chain to the store the moment it completes (quiescent with
// every invocation closed), publishing an eviction feed at /feedz on the
// debug server that `causectl chains -follow` tails live. On shutdown
// (SIGINT or -duration expiry) it drains the table into the store,
// optionally writes the merged store as a single .ftlog for the offline
// analyzer (`causectl -logs FILE report`), and prints the Dynamic System
// Call Graph.
//
// This lifts the paper's §3 restriction that collection happens "when the
// application ceases to exist or reaches a quiescent state": the same
// characterization pipeline now runs against live traffic from any number
// of processes, and the post-drain artifacts are the same record stream as
// per-process logs, so `causectl report` reads them unchanged.
//
// A ship frame is acknowledged only once it is kept: with -store, the
// collector appends every frame verbatim to <store>/journal before the
// reply, and a journal file goes only once the chains in it have reached
// the store. A collector killed with `kill -9` replays its journal into
// the store when it starts again, so no acknowledged record is lost with the
// process (a host crash can still lose what the OS had not written; there
// is no fsync). Nor does overload lose it: a collector whose chain table
// holds its backlog cap refuses ship frames unacknowledged until chains
// leave, and the shippers keep them and send them again. With
// -rate/-adaptive the daemon also owns the fleet's head-sampling rate:
// every shipping process takes it from its handshake reply, polls it once
// a second after that, and applies it to the chains it begins, and the
// AIMD governor (internal/sampling) lowers it when the daemon's own
// metrics show overload, refused frames among them. Without -rate the
// replies carry no rate and each process keeps its own ChainSampleRate.
//
// Usage:
//
//	collectd [flags]
//
// Flags:
//
//	-listen addr    TCP listen address (default 127.0.0.1:4317; use :0 for ephemeral)
//	-store dir      merge into a sharded on-disk trace store at this directory
//	                (internal/tracestore; query later with causectl) instead of
//	                the in-memory relational store, with the frame journal
//	                in dir/journal
//	-retain dur     with -store: every report tick, drop completed chains whose
//	                newest event is older than this and compact (0 = keep all)
//	-out path       write the merged record store to this .ftlog on shutdown
//	-dscg N         print at most N DSCG nodes after drain (0 = all, -1 = skip)
//	-workers N      parallel DSCG reconstruction workers post-drain (0 = GOMAXPROCS)
//	-slow dur       slow-call threshold for live flagging (default 100ms)
//	-report dur     period of the records/s + open-chains report, alert evaluation,
//	                fleet scrape, -retain sweep and governor (default 5s; > 0)
//	-duration dur   stop after this long (default 0 = run until SIGINT)
//	-roots          print every completed root live (noisy; slow calls always print)
//	-debug addr     mount the daemon's debug server here, with the collector's own
//	                endpoints: /ledgerz /exportz /ringz /memberz /rebalancez /feedz
//	-quiesce dur    idle time before a chain counts complete, or its parked records
//	                are judged; the chain table is ticked every tenth of it
//	-stale dur      give up on still-incomplete chains after this and evict them as
//	                broken; also how long finished chains are remembered, and how
//	                often the journal starts a new file
//	-rate R         head-sampling rate served to shippers, 0 < R <= 1 (1 = keep all)
//	-adaptive       steer the served rate by load (AIMD on drops/backlog signals)
//	-tail R         tail retention rate for normal chains; slow, broken, and
//	                anomalous chains are always retained
//	-alerts file    SLO rules file (see internal/alerting.ParseRules): evaluate
//	                multi-window burn-rate alerts over the daemon's fleet-merged
//	                series each report tick, print fire/resolve transitions, pin
//	                firing exemplar chains into streaming retention, and serve
//	                /alertz on the debug server
//	-heartbeat dur  automated cluster membership: probe every peer's debug
//	                plane on this jittered interval; a dead member is evicted
//	                by an automatic ring-epoch bump and its hash ranges are
//	                replayed to their new owners (0 = off)
//	-suspect-after N  consecutive missed heartbeats before a member is dead
//	-peer-debug list  comma-separated debug addresses parallel to -peers
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"causeway"
	"causeway/internal/alerting"
	"causeway/internal/analysis"
	"causeway/internal/cluster"
	"causeway/internal/debugserver"
	"causeway/internal/logdb"
	"causeway/internal/metrics"
	"causeway/internal/render"
	"causeway/internal/sampling"
	"causeway/internal/streamrecon"
	"causeway/internal/telemetry"
	"causeway/internal/tracestore"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "collectd:", err)
		os.Exit(1)
	}
}

// syncWriter serializes the daemon's many printers (ingest callbacks run
// on connection goroutines, the reporter on its own ticker).
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// run drives the daemon. stop, when non-nil, ends the run when closed —
// the test's stand-in for SIGINT.
func run(args []string, out io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("collectd", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:4317", "TCP listen address")
	storeDir := fs.String("store", "", "merge into an on-disk trace store at this directory")
	retain := fs.Duration("retain", 0, "with -store: drop completed chains older than this each report tick (0 = keep all)")
	outPath := fs.String("out", "", "write merged .ftlog here on shutdown")
	dscgNodes := fs.Int("dscg", 40, "max DSCG nodes to print after drain (0 = all, -1 = skip)")
	workers := fs.Int("workers", 1, "parallel DSCG reconstruction workers post-drain (0 = GOMAXPROCS)")
	slow := fs.Duration("slow", 100*time.Millisecond, "slow-call threshold")
	report := fs.Duration("report", 5*time.Second, "reporting period")
	duration := fs.Duration("duration", 0, "stop after this long (0 = until SIGINT)")
	roots := fs.Bool("roots", false, "print every completed root live")
	debugAddr := fs.String("debug", "", "mount the daemon's own debug server here and scrape peer /metrics into a fleet view")
	quiesce := fs.Duration("quiesce", 500*time.Millisecond, "idle time before a chain counts complete, or its parked records are judged")
	staleAfter := fs.Duration("stale", 30*time.Second, "give up on still-incomplete chains after this and evict them as broken; also how long finished chains are remembered, and how often the journal starts a new file")
	sampleRate := fs.Float64("rate", 1, "head-sampling rate served to shippers (0 < rate <= 1)")
	adaptive := fs.Bool("adaptive", false, "steer the served sampling rate by load (AIMD)")
	tailRate := fs.Float64("tail", 1, "tail retention rate for normal chains (0..1); slow, broken and anomalous chains are always kept")
	alertsFile := fs.String("alerts", "", "SLO rules file: evaluate burn-rate alerts over the daemon's series each report tick")
	peers := fs.String("peers", "", "comma-separated ingest-tier peer addresses: telemetry addresses of every ingest collector (this one included) to compute the ownership ring")
	advertise := fs.String("advertise", "", "this collector's address in -peers (default: the -listen address)")
	ringEpoch := fs.Uint64("ring-epoch", 1, "ownership-ring epoch to serve; bump when restarting with a changed -peers list so shippers re-route")
	heartbeat := fs.Duration("heartbeat", 0, "automated cluster membership: probe peers' debug planes on this jittered interval (0 = off; needs -peers, -peer-debug, -debug)")
	suspectAfter := fs.Int("suspect-after", 3, "consecutive missed heartbeats before a peer is declared dead and evicted from the ring")
	peerDebug := fs.String("peer-debug", "", "comma-separated debug addresses parallel to -peers, where each peer's /healthz and /memberz are served")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: collectd [flags]")
	}
	if *report <= 0 {
		return fmt.Errorf("-report %v must be positive", *report)
	}
	if *sampleRate <= 0 || *sampleRate > 1 {
		return fmt.Errorf("-rate %g out of range (0, 1]", *sampleRate)
	}
	if *tailRate < 0 || *tailRate > 1 {
		return fmt.Errorf("-tail %g out of range [0, 1]", *tailRate)
	}
	peerList, debugList := cluster.SplitAddrs(*peers), cluster.SplitAddrs(*peerDebug)
	if *heartbeat > 0 {
		if len(peerList) == 0 || len(debugList) == 0 || *debugAddr == "" {
			return fmt.Errorf("-heartbeat needs -peers, -peer-debug, and -debug")
		}
		if len(debugList) != len(peerList) {
			return fmt.Errorf("-peer-debug lists %d addresses for %d peers", len(debugList), len(peerList))
		}
	}
	w := &syncWriter{w: out}

	var rootCount, slowCount, anomalyCount atomic.Uint64
	store, disk, err := openStore(*storeDir)
	if err != nil {
		return err
	}
	if disk != nil {
		defer disk.Close()
	}
	// The daemon's own metrics plane: the chain table feeds chain
	// quantiles into it, the node renders its ingest, ledger and store
	// counters into it, and — with -debug — a fleet scraper merges peer
	// expositions into it.
	reg := metrics.NewRegistry()
	table := streamrecon.Config{
		Metrics: reg,
		OnRoot: func(ev streamrecon.RootEvent) {
			rootCount.Add(1)
			if *roots {
				outcome := fmt.Sprintf("latency=%v", ev.Root.Latency.Round(time.Microsecond))
				if ev.Root.Broken {
					outcome = "broken: " + ev.Root.BrokenReason
				}
				fmt.Fprintf(w, "live: root %s::%s chain=%s %s\n",
					ev.Root.Op().Interface, ev.Root.Op().Operation, ev.Chain.Short(), outcome)
			}
		},
		OnSlow: func(ev streamrecon.RootEvent) {
			slowCount.Add(1)
			fmt.Fprintf(w, "live: SLOW %s::%s took %v (threshold %v)\n",
				ev.Root.Op().Interface, ev.Root.Op().Operation,
				ev.Root.Latency.Round(time.Microsecond), *slow)
		},
		SlowThreshold: *slow,
		OnAnomaly: func(a analysis.Anomaly) {
			anomalyCount.Add(1)
			fmt.Fprintf(w, "live: ANOMALY %v\n", a)
		},
		Quiescence: *quiesce,
		StaleAfter: *staleAfter,
	}

	// Head-consistent sampling: the daemon owns the authoritative rate and
	// serves it in every telemetry hello and poll reply; shippers apply it
	// and decide keep/drop once per chain at the chain head.
	var sampler *sampling.Controlled
	if *adaptive || *sampleRate < 1 {
		sampler = sampling.NewControlled(*sampleRate)
		reg.RegisterSource("sampling", sampler.WriteMetrics)
	}

	// SLO alerting: rules evaluate against this daemon's own registry —
	// the fleet-merged view, since the chain table observes every
	// shipped record's compensated latency into it. Exemplar chains of
	// pending/firing alerts pin into the streaming tail policy so
	// retention keeps the evidence an operator will ask for.
	var alerts *alerting.Evaluator
	var alertPins *sampling.PinSet
	if *alertsFile != "" {
		rules, err := alerting.ParseRulesFile(*alertsFile)
		if err != nil {
			return err
		}
		alertPins = sampling.NewPinSet()
		alerts, err = alerting.NewEvaluator(alerting.Config{
			Registry: reg,
			Rules:    rules,
			Pins:     alertPins,
			OnTransition: func(tr alerting.Transition) {
				line := fmt.Sprintf("collectd: alert %s [%s]: %s -> %s (fast %.2fx, slow %.2fx burn)",
					tr.Rule, tr.Family, tr.From, tr.To, tr.FastBurn, tr.SlowBurn)
				if len(tr.Exemplars) > 0 {
					line += " exemplars " + strings.Join(tr.Exemplars, ",")
				}
				fmt.Fprintln(w, line)
			},
		})
		if err != nil {
			return err
		}
		reg.RegisterSource("alerting", alerts.WriteMetrics)
		fmt.Fprintf(w, "collectd: alerting on (%d rule(s) from %s)\n", len(rules), *alertsFile)
	}

	// Records flow server → journal → table → store, with the table
	// evicting each chain the moment it completes, under the tail policy.
	if *tailRate < 1 || alertPins != nil {
		table.Tail = &sampling.TailPolicy{NormalRate: *tailRate, Pins: alertPins}
	}

	// The collector itself: store, telemetry server, chain table, served
	// ring (computed from -peers; every collector and causectl run the
	// same sorted assignment, so identical flags produce an identical ring
	// everywhere — the configuration is the coordinator), replay
	// acceptance and ledger are one cluster.Node.
	var fleet *fleetScraper
	nodeCfg := cluster.NodeConfig{
		Listen:    *listen,
		Advertise: *advertise,
		Store:     store,
		Table:     table,
		OnConnect: func(p telemetry.Peer) {
			fmt.Fprintf(w, "collectd: process %q (%s) connected\n", p.Process, p.ProcType)
		},
		Peers: peerList,
		Epoch: *ringEpoch,
	}
	if sampler != nil {
		nodeCfg.SampleRate = sampler.Rate
	}
	if *debugAddr != "" {
		fleet = newFleetScraper()
		reg.RegisterSource("fleet", fleet.WriteMetrics)
		nodeCfg.NoOwner = fleet.noOwner
	}
	node, err := cluster.StartNode(nodeCfg)
	if err != nil {
		return err
	}
	defer node.Close()
	srv, chains := node.Server(), node.Table()
	reg.RegisterSource("node", node.WriteMetrics)
	fmt.Fprintf(w, "collectd: listening on %s\n", node.Addr())
	if len(peerList) > 0 {
		ring := node.Ring()
		if m, ok := cluster.MemberByID(ring, node.ID()); ok {
			fmt.Fprintf(w, "collectd: cluster ring %s; this collector owns [%d,%d)\n", ring, m.Start, m.End)
		} else {
			fmt.Fprintf(w, "collectd: cluster ring %s; WARNING: %s is not in -peers (set -advertise)\n", ring, node.ID())
		}
	}
	fmt.Fprintf(w, "collectd: streaming assembly on (quiesce %v, stale %v)\n", *quiesce, *staleAfter)
	for _, warn := range node.Warnings() {
		fmt.Fprintf(w, "collectd: journal warning: %s\n", warn)
	}
	if sampler != nil {
		mode := "fixed"
		if *adaptive {
			mode = "adaptive"
		}
		fmt.Fprintf(w, "collectd: serving head-sampling rate %g (%s)\n", sampler.Rate(), mode)
	}

	// Own introspection server (-debug), carrying the node's endpoints.
	if *debugAddr != "" {
		dbg, err := debugserver.Start(debugserver.Config{
			Addr:     *debugAddr,
			Registry: reg,
			Monitor:  chains,
			Process:  "collectd",
			ProcType: "collector",
			Aspects:  "collection",
			Alerts:   alerts,
			Extra:    node.Handlers(),
		})
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Fprintf(w, "collectd: debug server on %s\n", dbg.Addr())
	}

	// Automated membership: heartbeat the peers' debug planes, evict dead
	// members by proposing the next ring epoch, replay the moved ranges,
	// and assert the tier conservation ledger — no operator action.
	if *heartbeat > 0 {
		debugs := make(map[string]string, len(peerList))
		for i, p := range peerList {
			debugs[p] = debugList[i]
		}
		if err := node.StartMembership(cluster.MembershipConfig{
			Members:      cluster.Members(peerList...),
			DebugAddrs:   debugs,
			Epoch:        *ringEpoch,
			Interval:     *heartbeat,
			SuspectAfter: *suspectAfter,
			OnEvent:      func(ev string) { fmt.Fprintf(w, "collectd: membership: %s\n", ev) },
		}); err != nil {
			return err
		}
		fmt.Fprintf(w, "collectd: automated membership on (heartbeat %v, suspect after %d misses)\n", *heartbeat, *suspectAfter)
	}
	if disk != nil {
		// Torn segment tails truncated at open (or met while reading)
		// accumulate as store warnings; their count is the recovery counter.
		reg.RegisterSource("store", func(w io.Writer) {
			fmt.Fprintf(w, "causeway_torn_tail_recoveries_total %d\n", len(disk.Warnings()))
		})
	}

	// The AIMD governor rides the reporting loop: each tick it reads the
	// daemon's own metrics plane — assembler backlog, frames the server
	// refused, records the store lost to disk failures — and steers the
	// rate the server serves.
	var gov *sampling.Governor
	if *adaptive {
		gov = sampling.NewGovernor(sampler.Rate())
	}
	lostRecords := func() uint64 {
		if disk == nil {
			return 0
		}
		return uint64(disk.Dropped())
	}

	// While frames arrive, the chain table evicts a complete chain in the
	// first frame's door after its quiescence ends. The ticker, at a tenth
	// of the quiescence whatever -report is, bounds only the rest: eviction
	// once frames stop, staleness, stragglers and journal retirement. The
	// periodic self-report — ingest rate and live-parse progress — and
	// everything else periodic ride -report.
	reporterDone := make(chan struct{})
	reporterStop := make(chan struct{})
	go func() {
		defer close(reporterDone)
		tick := time.NewTicker(max(chains.Quiescence()/10, time.Millisecond))
		defer tick.Stop()
		ticker := time.NewTicker(*report)
		defer ticker.Stop()
		var last, lastLost, lastRefused uint64
		lastT := time.Now()
		for {
			select {
			case <-reporterStop:
				return
			case <-tick.C:
				node.Tick()
			case <-ticker.C:
				st := srv.Stats()
				now := time.Now()
				rate := ingestRate(st.Records, last, now.Sub(lastT))
				last, lastT = st.Records, now
				led := node.Ledger()
				fmt.Fprintf(w, "collectd: %d records (%.0f/s), %d batches, %d peers, %d open chains, %d evicted (%d records persisted, %d discarded), %d roots, %d slow, %d anomalies\n",
					st.Records, rate, st.Batches, st.Peers, chains.OpenChains(), chains.Completions(),
					led.Persisted, led.Discarded,
					rootCount.Load(), slowCount.Load(), anomalyCount.Load())
				if alerts != nil {
					alerts.Eval()
				}
				if fleet != nil {
					fleet.scrape(peerDebugAddrs(srv))
				}
				if disk != nil && *retain > 0 {
					if n, err := disk.Sweep(*retain); err != nil {
						fmt.Fprintf(w, "collectd: sweep: %v\n", err)
					} else if n > 0 {
						fmt.Fprintf(w, "collectd: sweep dropped %d completed chain(s) older than %v\n", n, *retain)
					}
				}
				if gov != nil {
					lost := lostRecords()
					next := gov.Tick(sampling.Signals{
						Backlog:      chains.OpenChains(),
						DropsDelta:   lost - lastLost,
						RefusedDelta: st.Refused - lastRefused,
					})
					lastLost, lastRefused = lost, st.Refused
					if next != sampler.Rate() {
						sampler.SetRate(next)
						fmt.Fprintf(w, "collectd: sampling rate -> %.3g\n", next)
					}
				}
			}
		}
	}()

	drained, release := drainSignal(w, *duration, stop)
	defer release()
	<-drained

	close(reporterStop)
	<-reporterDone
	// Close drains: the table's open chains go to the store, the store
	// flushes, and the journal goes.
	evicted := chains.Completions()
	if err := node.Close(); err != nil {
		return err
	}
	led := chains.Ledger()
	fmt.Fprintf(w, "collectd: streaming drain evicted %d open chain(s)\n", chains.Completions()-evicted)
	balance := "balanced"
	if led.Buffered != 0 || led.Appended != led.Persisted+led.Discarded {
		balance = "UNBALANCED"
	}
	fmt.Fprintf(w, "collectd: assembler ledger: appended=%d persisted=%d discarded=%d buffered=%d (%s)\n",
		led.Appended, led.Persisted, led.Discarded, led.Buffered, balance)

	st := srv.Stats()
	fmt.Fprintf(w, "collectd: drained %d records in %d batches from %d peer connection(s); %d roots, %d slow, %d anomalies\n",
		st.Records, st.Batches, st.Peers, rootCount.Load(), slowCount.Load(), anomalyCount.Load())
	for _, a := range srv.PeerAccounting() {
		line := fmt.Sprintf("collectd:   peer %s (%s): ingested %d records in %d batches",
			a.Peer.Process, a.Peer.ProcType, a.Records, a.Batches)
		if a.Reported {
			line += fmt.Sprintf("; shipper appended=%d shipped=%d dropped=%d",
				a.Shipper.Appended, a.Shipper.Shipped, a.Shipper.Dropped)
		} else {
			line += "; no shipper report (connection lost before drain)"
		}
		fmt.Fprintln(w, line)
	}
	if disk != nil {
		for _, warn := range disk.Warnings() {
			fmt.Fprintf(w, "collectd: store warning: %s\n", warn)
		}
		fmt.Fprintf(w, "collectd: trace store at %s holds %d records\n", *storeDir, disk.Len())
		if n := disk.Swept(); n > 0 {
			fmt.Fprintf(w, "collectd: store swept %d record(s) by retention\n", n)
		}
		if n := disk.Dropped(); n > 0 {
			fmt.Fprintf(w, "collectd: store dropped %d record(s) to disk failures\n", n)
		}
	}

	return writeArtifacts(w, store, *outPath, *dscgNodes, *workers)
}

// openStore opens the daemon's record store: the sharded on-disk trace
// store at dir, or the in-memory relational store when dir is empty. disk
// is the same store when it is the on-disk one — for what only a disk
// store has (Sweep, Flush, Warnings, Close) — and nil otherwise.
func openStore(dir string) (store cluster.Store, disk *tracestore.Store, err error) {
	if dir == "" {
		return logdb.NewStore(), nil, nil
	}
	disk, err = tracestore.Open(dir, tracestore.Options{})
	if err != nil {
		return nil, nil, err
	}
	return disk, disk, nil
}

// drainSignal watches for the first shutdown trigger — SIGINT, -duration
// expiry, or the test's stop channel — announces it, and closes drained.
// One select means the first trigger wins and any later one — a SIGINT
// landing while a -duration drain is already underway, or vice versa —
// is never looked at, so nothing can start a second drain over the same
// server and store. release ends the watch.
func drainSignal(w io.Writer, duration time.Duration, stop <-chan struct{}) (drained <-chan struct{}, release func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	var expired <-chan time.Time
	stopTimer := func() bool { return false }
	if duration > 0 {
		timer := time.NewTimer(duration)
		expired, stopTimer = timer.C, timer.Stop
	}
	done, released := make(chan struct{}), make(chan struct{})
	go func() {
		var reason string
		select {
		case <-sig:
			reason = "interrupt"
		case <-expired:
			reason = "duration elapsed"
		case <-stop:
			reason = "stop requested"
		case <-released:
			return
		}
		fmt.Fprintf(w, "collectd: %s, draining\n", reason)
		close(done)
	}()
	return done, func() {
		signal.Stop(sig)
		stopTimer()
		close(released)
	}
}

// writeArtifacts leaves what a drained daemon leaves behind: the merged
// store as one .ftlog (-out) and the Dynamic System Call Graph (-dscg).
func writeArtifacts(w io.Writer, store cluster.Store, outPath string, dscgNodes, workers int) error {
	if outPath != "" {
		if err := logdb.SaveFile(store, outPath); err != nil {
			return err
		}
		fmt.Fprintf(w, "collectd: merged log written to %s\n", outPath)
	}
	if dscgNodes >= 0 {
		report := causeway.AnalyzeSource(store, workers)
		if report.Warnings > 0 {
			fmt.Fprintf(w, "collectd: %d warning(s): broken chains left by failed or abandoned calls\n", report.Warnings)
		}
		fmt.Fprintln(w, "\nDynamic System Call Graph:")
		if err := render.DSCGText(w, report.Graph, -1, dscgNodes); err != nil {
			return err
		}
	}
	return nil
}

// ingestRate computes records/s over one reporting interval. A
// non-positive interval (a clock hiccup, or a tick delivered before any
// time elapsed) and a counter that did not advance both report 0 cleanly
// instead of a division artifact.
func ingestRate(cur, last uint64, elapsed time.Duration) float64 {
	if elapsed <= 0 || cur <= last {
		return 0
	}
	return float64(cur-last) / elapsed.Seconds()
}

// peerDebugAddrs lists the distinct debug addresses the connected peers
// advertised in their handshakes.
func peerDebugAddrs(srv *telemetry.Server) []string {
	accts := srv.PeerAccounting()
	addrs := make([]string, 0, len(accts))
	for _, a := range accts {
		if a.Peer.DebugAddr != "" {
			addrs = append(addrs, a.Peer.DebugAddr)
		}
	}
	return addrs
}
