// Package causeway is a monitoring and characterization framework for
// component-based distributed systems with global causality capture — a
// from-scratch Go reproduction of Jun Li, "Monitoring and Characterization
// of Component-Based Systems with Global Causality Capture" (ICDCS 2003).
//
// The framework instruments the stubs and skeletons an IDL compiler
// (cmd/idlc) generates: four probes per invocation record causality,
// timing-latency and per-thread CPU behaviour locally, and a constant-size
// Function-Transportable Log (Function UUID + event sequence number)
// tunnels through thread-specific storage and a hidden in-out wire
// parameter across threads, processes and processors. An offline analyzer
// reconstructs the Dynamic System Call Graph, computes overhead-compensated
// end-to-end latency and self/descendent CPU propagation, and synthesizes
// the CPU Consumption Summarization Graph.
//
// This facade assembles the per-process runtime (Process) and the offline
// pipeline (Collect/Analyze/Report). The substrates live in internal/:
// a CORBA-like ORB (internal/orb), a COM-like runtime with apartments
// (internal/com), a CORBA↔COM bridge (internal/bridge), the IDL compiler
// front and back ends (internal/idl, internal/idlgen), and the analysis
// stack (internal/logdb, internal/analysis, internal/render).
package causeway

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"causeway/internal/alerting"
	"causeway/internal/analysis"
	"causeway/internal/cluster"
	"causeway/internal/cputime"
	"causeway/internal/debugserver"
	"causeway/internal/logdb"
	"causeway/internal/metrics"
	"causeway/internal/orb"
	"causeway/internal/probe"
	"causeway/internal/render"
	"causeway/internal/sampling"
	"causeway/internal/streamrecon"
	"causeway/internal/telemetry"
	"causeway/internal/topology"
	"causeway/internal/transport"
	"causeway/internal/vclock"
)

// Re-exported core types, so applications need only this package plus
// their generated stubs.
type (
	// ORB is the CORBA-like runtime instance of one logical process.
	ORB = orb.ORB
	// Ref is a client-side object reference.
	Ref = orb.Ref
	// Directory is the naming service.
	Directory = orb.Directory
	// Binding names an object in a Directory.
	Binding = orb.Binding
	// Network is the in-process transport namespace shared by logical
	// processes hosted in one binary.
	Network = transport.InprocNetwork
	// Record is one monitoring log record.
	Record = probe.Record
	// DSCG is the Dynamic System Call Graph.
	DSCG = analysis.DSCG
	// CCSG is the CPU Consumption Summarization Graph.
	CCSG = analysis.CCSG
	// Node is one DSCG invocation node.
	Node = analysis.Node
	// PolicyKind selects a server threading architecture.
	PolicyKind = orb.PolicyKind
)

// Threading policies (re-exported).
const (
	ThreadPerRequest    = orb.ThreadPerRequest
	ThreadPerConnection = orb.ThreadPerConnection
	ThreadPool          = orb.ThreadPool
)

// NewNetwork creates an in-process transport namespace.
func NewNetwork() *Network { return transport.NewInprocNetwork() }

// NewDirectory creates a naming service.
func NewDirectory() *Directory { return orb.NewDirectory() }

// Aspect selects which behaviour dimension the probes monitor besides
// causality (which is always captured). Latency and CPU are never armed
// simultaneously (§2.1).
type Aspect int

// Monitoring aspects.
const (
	// MonitorCausality captures causality only.
	MonitorCausality Aspect = iota
	// MonitorLatency additionally records wall-clock probe windows.
	MonitorLatency
	// MonitorCPU additionally records per-thread CPU readings.
	MonitorCPU
)

// ProcessConfig assembles one monitored logical process.
type ProcessConfig struct {
	// Name uniquely identifies the process in the deployment.
	Name string
	// ProcessorType classifies the hosting CPU (DC vectors aggregate per
	// type); default "generic".
	ProcessorType string
	// Network is the shared in-process transport namespace; required for
	// inproc endpoints.
	Network *Network
	// Instrumented deploys the instrumented wire format. All processes of
	// a deployment must agree.
	Instrumented bool
	// Monitor selects the armed aspect.
	Monitor Aspect
	// LogPath, when set, streams records to this file (collect later with
	// AnalyzeFiles). A process that neither logs nor ships (ShipTo) keeps
	// its records in memory for Records; a shipping process without a log
	// keeps none, so Records is nil for it and its memory stays bounded by
	// the shipper's ring.
	LogPath string
	// Policy selects the server threading architecture.
	Policy PolicyKind
	// DisableCollocation forces same-process calls through the full path.
	DisableCollocation bool
	// PinDispatch locks dispatches to OS threads so real per-thread CPU
	// metering is meaningful; implied by Monitor == MonitorCPU.
	PinDispatch bool
	// Online, when set, receives this process's records live in addition
	// to the persistent log — the §6 on-line management extension. Like
	// the log, it gets each span on the calling goroutine and loses none,
	// so its callbacks run there too, under the monitor's table lock: they
	// must be fast, and must not make instrumented calls into a process
	// that feeds the same monitor.
	Online *OnlineMonitor
	// ShipTo, when set, streams this process's records live to the
	// collector tier (cmd/collectd), in addition to the log when LogPath
	// is set; a shipping process keeps no records in memory. It names one
	// collector's TCP address, or the comma-separated list `collectd
	// -peers` takes. Each record routes to the collector
	// owning its chain's hash range (see internal/cluster), so every chain
	// lands whole on one collector. The addresses seed a provisional ring;
	// the ring any of those collectors serves supersedes it, and
	// rebalances re-route buffered records. A one-address ring is the
	// standalone collector. Shipping never blocks a probe: records buffer
	// in a bounded ring and the oldest are dropped under backpressure (see
	// internal/telemetry).
	ShipTo string
	// CallTimeout bounds every synchronous invocation issued through this
	// process's references; zero means wait forever.
	CallTimeout time.Duration
	// Retry enables bounded, jittered retry for idempotent references and
	// oneway posts; the zero value disables retry.
	Retry RetryPolicy
	// WrapClient wraps every transport client the ORB dials — the
	// fault-injection hook (see internal/faultinject).
	WrapClient func(transport.Client) transport.Client
	// DebugAddr, when set, mounts the process's introspection HTTP server
	// there ("127.0.0.1:0" picks an ephemeral port; read it back with
	// Process.DebugAddr). It serves /metrics, /statusz, /chainz, /healthz
	// and /debug/pprof, and — when the process also ships telemetry — is
	// advertised in the shipper handshake so cmd/collectd can scrape it.
	DebugAddr string
	// Metrics, when set, is the registry the process's probes, ORB and
	// transports count into — share one across in-binary processes for a
	// merged view. Nil allocates a fresh registry per process.
	Metrics *MetricsRegistry
	// ChainSampleRate, when in (0, 1), arms head-consistent chain
	// sampling: each fresh chain this process begins is kept or dropped
	// by a deterministic hash of its Function UUID, and the decision
	// travels in the FTL so every downstream process agrees — chains are
	// recorded whole or not at all. 0 (the zero value) and 1 keep every
	// chain. A shipping process starts at this rate and then follows the
	// rate its collector serves (cmd/collectd -rate/-adaptive), taken from
	// the handshake and polled once a second after it; a collector that
	// serves none leaves it here.
	ChainSampleRate float64
	// SLO, when non-empty, arms the in-process alerting plane: the rules
	// are evaluated against this process's registry by a background
	// ticker (multi-window burn rate, pending→firing→resolved), exemplar
	// capture is armed on every histogram so alerts carry offending
	// chain UUIDs, and the debug server additionally serves /alertz.
	// Read the evaluator back with Process.Alerts.
	SLO []SLORule
	// SLOInterval is the evaluation period; zero selects 1s. Windows
	// need several evaluations to fill, so keep it well under the rules'
	// FastWindow.
	SLOInterval time.Duration
}

// SLORule declares one service-level objective for the in-process
// alerting plane (see internal/alerting.Rule).
type SLORule = alerting.Rule

// AlertEvaluator re-exports the burn-rate alert evaluator.
type AlertEvaluator = alerting.Evaluator

// ParseSLORules reads the declarative rules-file format (see
// alerting.ParseRules).
func ParseSLORules(r io.Reader) ([]SLORule, error) { return alerting.ParseRules(r) }

// MetricsRegistry is the in-process metrics plane: goroutine-sharded
// counters and log-linear latency histograms whose bucket scheme matches
// the offline analyzer's quantile digests (see internal/metrics).
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry builds an empty metrics registry, for sharing one
// across the logical processes of a single binary.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// RetryPolicy re-exports the ORB's bounded-retry configuration.
type RetryPolicy = orb.RetryPolicy

// Process is one monitored logical process: its ORB and its log.
type Process struct {
	ORB *ORB

	proc    topology.Process
	mem     *probe.MemorySink
	file    *os.File
	stream  *probe.StreamSink
	shipper *cluster.RoutedShipper
	metrics *metrics.Registry
	debug   *debugserver.Server
	sampler *sampling.Controlled

	alerts    *alerting.Evaluator
	alertStop chan struct{}
	alertDone chan struct{}
}

// NewProcess builds a monitored process.
func NewProcess(cfg ProcessConfig) (*Process, error) {
	if cfg.Name == "" {
		return nil, errors.New("causeway: process needs a Name")
	}
	if cfg.ProcessorType == "" {
		cfg.ProcessorType = "generic"
	}
	proc := topology.Process{
		ID:        cfg.Name,
		Processor: topology.Processor{ID: cfg.Name + "-cpu", Type: cfg.ProcessorType},
	}
	p := &Process{proc: proc, metrics: cfg.Metrics}
	if p.metrics == nil {
		p.metrics = metrics.NewRegistry()
	}
	p.metrics.RegisterSource("transport_pool", transport.WritePoolMetrics)
	if cfg.Online != nil {
		// Feed the online analyzer's compensated chain latencies into this
		// registry so /metrics quantiles agree exactly with the offline
		// InterfaceStat digests (first process wins on a shared monitor).
		cfg.Online.SetMetrics(p.metrics)
	}
	fail := func(err error) (*Process, error) {
		if p.shipper != nil {
			p.shipper.Close()
		}
		if p.debug != nil {
			p.debug.Close()
		}
		p.closeFile()
		return nil, err
	}

	// Records go to the log, the shipper, or — when the process has
	// neither — memory, so a long-running shipping process grows nothing.
	var sink probe.Sink
	switch {
	case cfg.LogPath != "":
		f, err := os.Create(cfg.LogPath)
		if err != nil {
			return nil, fmt.Errorf("causeway: create log: %w", err)
		}
		p.file = f
		p.stream = probe.NewStreamSink(f)
		sink = p.stream
	case cfg.ShipTo == "":
		p.mem = &probe.MemorySink{}
		sink = p.mem
	}
	if cfg.Online != nil {
		sink = tee(sink, cfg.Online)
	}

	// The alerting evaluator is built before the debug server so /alertz
	// can mount it; the evaluation ticker only starts once the whole
	// process has assembled (so fail paths never leak the goroutine).
	if len(cfg.SLO) > 0 {
		ev, err := alerting.NewEvaluator(alerting.Config{
			Registry: p.metrics,
			Rules:    cfg.SLO,
		})
		if err != nil {
			return fail(fmt.Errorf("causeway: slo: %w", err))
		}
		p.alerts = ev
		p.metrics.RegisterSource("alerting", ev.WriteMetrics)
	}

	// The debug server starts before the shipper so the handshake can
	// advertise its resolved address to the collection daemon.
	if cfg.DebugAddr != "" {
		dbg, err := debugserver.Start(debugserver.Config{
			Addr:         cfg.DebugAddr,
			Registry:     p.metrics,
			Monitor:      cfg.Online,
			Process:      cfg.Name,
			ProcType:     cfg.ProcessorType,
			Aspects:      cfg.Monitor.aspectString(),
			Instrumented: cfg.Instrumented,
			Alerts:       p.alerts,
		})
		if err != nil {
			return fail(fmt.Errorf("causeway: %w", err))
		}
		p.debug = dbg
	}
	if cfg.ShipTo != "" || (cfg.ChainSampleRate > 0 && cfg.ChainSampleRate < 1) {
		rate := cfg.ChainSampleRate
		if rate <= 0 || rate >= 1 {
			rate = 1
		}
		p.sampler = sampling.NewControlled(rate)
		p.metrics.RegisterSource("sampling", p.sampler.WriteMetrics)
	}
	if cfg.ShipTo != "" {
		// Epoch 0 marks the configured ring provisional: any ring a
		// collector serves (epoch >= 1) supersedes it on first contact.
		// Assign refuses a list with no address, or one named twice.
		addrs := cluster.SplitAddrs(cfg.ShipTo)
		ring, err := cluster.Assign(0, cluster.DefaultSlots, cluster.Members(addrs...))
		if err != nil {
			return fail(fmt.Errorf("causeway: ShipTo: %w", err))
		}
		tmpl := telemetry.ShipperConfig{Process: proc, RateTarget: p.sampler}
		if p.debug != nil {
			tmpl.DebugAddr = p.debug.Addr()
		}
		sh, err := cluster.NewRouted(cluster.RouterConfig{Ring: ring, Shipper: tmpl})
		if err != nil {
			return fail(fmt.Errorf("causeway: shipper: %w", err))
		}
		p.shipper = sh
		p.metrics.RegisterSource("shipper", sh.WriteMetrics)
		sink = tee(sink, sh)
	}

	var aspects probe.Aspect
	var meter cputime.Meter
	switch cfg.Monitor {
	case MonitorLatency:
		aspects = probe.AspectLatency
	case MonitorCPU:
		aspects = probe.AspectCPU
		meter = cputime.OSThreadMeter{}
		cfg.PinDispatch = true
	}

	probeCfg := probe.Config{
		Process: proc,
		Aspects: aspects,
		Clock:   vclock.System{},
		Meter:   meter,
		Sink:    sink,
		Metrics: p.metrics,
	}
	if p.sampler != nil {
		probeCfg.Sampler = p.sampler
	}
	probes, err := probe.New(probeCfg)
	if err != nil {
		return fail(err)
	}
	o, err := orb.New(orb.Config{
		Process:            proc,
		Probes:             probes,
		Instrumented:       cfg.Instrumented,
		Policy:             cfg.Policy,
		Network:            cfg.Network,
		DisableCollocation: cfg.DisableCollocation,
		PinDispatch:        cfg.PinDispatch,
		CallTimeout:        cfg.CallTimeout,
		Retry:              cfg.Retry,
		WrapClient:         cfg.WrapClient,
		Metrics:            p.metrics,
	})
	if err != nil {
		return fail(err)
	}
	p.ORB = o

	if p.alerts != nil {
		interval := cfg.SLOInterval
		if interval <= 0 {
			interval = time.Second
		}
		p.alertStop = make(chan struct{})
		p.alertDone = make(chan struct{})
		go func(ev *alerting.Evaluator) {
			defer close(p.alertDone)
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					ev.Eval()
				case <-p.alertStop:
					return
				}
			}
		}(p.alerts)
	}
	return p, nil
}

// tee adds b to the sinks a process's records go to; a is nil until the
// first is chosen.
func tee(a, b probe.Sink) probe.Sink {
	if a == nil {
		return b
	}
	return probe.TeeSink{a, b}
}

// aspectString names the armed aspects for /statusz.
func (a Aspect) aspectString() string {
	switch a {
	case MonitorLatency:
		return "causality+latency"
	case MonitorCPU:
		return "causality+cpu"
	default:
		return "causality"
	}
}

// NewChain ends the calling thread's current causal chain, so its next
// invocation begins a fresh Function UUID. Clients call it between
// independent top-level transactions.
func (p *Process) NewChain() { p.ORB.Probes().Tunnel().Clear() }

// Records returns the in-memory records: nil for a process that logs to a
// file or ships to a collector.
func (p *Process) Records() []Record {
	if p.mem == nil {
		return nil
	}
	return p.mem.Snapshot()
}

// Metrics returns the process's metrics registry — always non-nil, even
// when no debug server is mounted.
func (p *Process) Metrics() *MetricsRegistry { return p.metrics }

// DebugAddr returns the introspection server's bound address, empty when
// ProcessConfig.DebugAddr was unset.
func (p *Process) DebugAddr() string {
	if p.debug == nil {
		return ""
	}
	return p.debug.Addr()
}

// SamplingRate reports the head-sampling rate currently applied to
// fresh chains; 1 when sampling is not armed.
func (p *Process) SamplingRate() float64 {
	if p.sampler == nil {
		return 1
	}
	return p.sampler.Rate()
}

// ShipperStats reports the record shipper's counters; the zero value when
// the process does not ship.
func (p *Process) ShipperStats() telemetry.ShipperStats {
	if p.shipper == nil {
		return telemetry.ShipperStats{}
	}
	return p.shipper.Combined()
}

// ClusterRing reports the ownership ring the process's routed shipper
// currently routes by. ok is false when the process does not ship.
// Callers waiting out a rebalance poll this for the epoch bump
// before draining, so no record is caught mid-re-route by Close.
func (p *Process) ClusterRing() (ring telemetry.Ring, ok bool) {
	if p.shipper == nil {
		return telemetry.Ring{}, false
	}
	return p.shipper.Ring(), true
}

// Alerts returns the process's SLO alert evaluator, nil when
// ProcessConfig.SLO was empty. Callers may drive Eval directly (tests
// with fake traffic) alongside the background ticker.
func (p *Process) Alerts() *AlertEvaluator { return p.alerts }

// Close shuts the ORB down, drains the record shipper (bounded), and
// flushes the log file, if any.
func (p *Process) Close() error {
	if p.alertStop != nil {
		close(p.alertStop)
		<-p.alertDone
		p.alertStop = nil
	}
	p.ORB.Shutdown()
	if p.shipper != nil {
		p.shipper.Close()
	}
	if p.debug != nil {
		p.debug.Close()
	}
	if p.stream != nil {
		if err := p.stream.Close(); err != nil {
			p.closeFile()
			return err
		}
	}
	return p.closeFile()
}

func (p *Process) closeFile() error {
	if p.file == nil {
		return nil
	}
	err := p.file.Close()
	p.file = nil
	return err
}

// Report is the outcome of offline characterization (§3): the DSCG, run
// statistics, per-operation latency aggregation, and the CCSG.
type Report struct {
	Graph        *DSCG
	Stats        logdb.Stats
	LatencyStats []analysis.LatencyStat
	CCSG         *CCSG
	// Interactions is the component-interaction topology (§3.1), sorted by
	// descending call count.
	Interactions []analysis.Interaction
	// Warnings counts recoverable defects in the collected data: causal
	// chains whose probe-event sequence a failure left incomplete (broken
	// chains, kept in the graph with a '!' marker), plus — for AnalyzeFiles
	// — log files whose tail record was torn by a crashed writer (their
	// readable prefixes are still included).
	Warnings int
}

// Analyze collects records and performs the full offline pipeline.
func Analyze(records ...[]Record) *Report {
	db := logdb.NewStore()
	for _, batch := range records {
		db.Insert(batch...)
	}
	return analyzeStore(db)
}

// AnalyzeProcesses collects from live in-memory processes.
func AnalyzeProcesses(procs ...*Process) *Report {
	batches := make([][]Record, 0, len(procs))
	for _, p := range procs {
		batches = append(batches, p.Records())
	}
	return Analyze(batches...)
}

// AnalyzeFiles collects per-process log files matching glob. Files with
// torn tails (crashed writers) contribute their complete frames and are
// counted in Report.Warnings.
func AnalyzeFiles(glob string) (*Report, error) {
	db := logdb.NewStore()
	_, warnings, err := db.LoadGlob(glob)
	if err != nil {
		return nil, err
	}
	r := analyzeStore(db)
	r.Warnings += warnings
	return r, nil
}

// AnalyzeStore performs the offline pipeline over an already-merged store —
// e.g. one a telemetry collection daemon (cmd/collectd) filled live.
func AnalyzeStore(db *logdb.Store) *Report { return analyzeStore(db) }

// Source is any merged record store the offline pipeline can analyze.
// *logdb.Store (in-memory relational store) and *tracestore.Store (the
// sharded on-disk store cmd/collectd fills in -store mode) both satisfy
// it.
type Source interface {
	analysis.Source
	logdb.Records
}

// AnalyzeSource performs the offline pipeline over src, fanning the
// Figure-4 reconstruction state machine over workers goroutines
// (workers <= 0 picks GOMAXPROCS, 1 is strictly sequential). Chains are
// independent until the final tree-grouping pass, so the result is
// identical to the sequential path regardless of worker count.
func AnalyzeSource(src Source, workers int) *Report {
	g := analysis.ReconstructParallel(src, workers)
	g.ComputeLatency()
	g.ComputeCPU()
	return &Report{
		Graph:        g,
		Stats:        logdb.ComputeStats(src),
		LatencyStats: g.LatencyStats(),
		CCSG:         analysis.BuildCCSG(g),
		Interactions: g.Interactions(),
		Warnings:     len(g.Broken),
	}
}

func analyzeStore(db *logdb.Store) *Report { return AnalyzeSource(db, 1) }

// WriteDSCG renders the call graph as an indented text tree.
func (r *Report) WriteDSCG(w io.Writer) error {
	return render.DSCGText(w, r.Graph, -1, 0)
}

// WriteCCSGXML renders the CPU Consumption Summarization Graph as XML
// (the Figure-6 format).
func (r *Report) WriteCCSGXML(w io.Writer) error {
	return render.CCSGXML(w, r.CCSG)
}

// WriteCCSGText renders a compact text CCSG.
func (r *Report) WriteCCSGText(w io.Writer) error {
	return render.CCSGText(w, r.CCSG)
}

// Online monitoring (the paper's §6 "on-line perspective for
// application-level system management" future-work direction).
type (
	// OnlineMonitor incrementally reconstructs causality from a live
	// record stream and fires callbacks as top-level invocations complete.
	OnlineMonitor = streamrecon.Assembler
	// OnlineConfig wires the online monitor's callbacks.
	OnlineConfig = streamrecon.Config
	// RootEvent describes one completed top-level invocation.
	RootEvent = streamrecon.RootEvent
)

// NewOnlineMonitor builds a live causality monitor. Set it as
// ProcessConfig.Online on every process of the deployment (one shared
// monitor sees whole cross-process chains) and it fires OnRoot/OnSlow as
// top-level invocations complete, while the persistent log still flows.
func NewOnlineMonitor(cfg OnlineConfig) *OnlineMonitor {
	return streamrecon.NewMonitor(cfg)
}

// ShipperStats re-exports the telemetry shipper's self-observability
// counters (see ProcessConfig.ShipTo and cmd/collectd).
type ShipperStats = telemetry.ShipperStats
