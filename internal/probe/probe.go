// Package probe implements the paper's four-point probe framework
// (Figure 1) and the records it emits.
//
// Each remote invocation passes four probes: (1) the start of the stub
// after the client invokes the function, (2) the beginning of the skeleton
// when the request arrives, (3) the end of the skeleton when execution
// concludes, and (4) the end of the stub when the response returns. Every
// probe performs causality capture (FTL sequence update + event record);
// latency and CPU aspects are armed separately and — per §2.1, to reduce
// interference — never simultaneously.
//
// All behaviour is recorded locally by each probe "without coordination and
// global clock synchronization": a Probes instance belongs to one logical
// process, owns that process's clock, CPU meter, tunnel endpoint, and sink.
package probe

import (
	"errors"
	"sync"
	"time"

	"causeway/internal/cputime"
	"causeway/internal/ftl"
	"causeway/internal/gls"
	"causeway/internal/metrics"
	"causeway/internal/topology"
	"causeway/internal/uuid"
	"causeway/internal/vclock"
)

// Aspect selects which behaviour dimensions the probes monitor. Causality
// capture is always performed and has no flag.
type Aspect uint8

// The monitorable aspects.
const (
	// AspectLatency arms wall-clock timestamping at each probe.
	AspectLatency Aspect = 1 << iota
	// AspectCPU arms per-thread CPU readings at each probe.
	AspectCPU
	// AspectSemantics arms application-semantics capture: input parameters
	// at skeleton start, and output parameters or the thrown exception at
	// skeleton end — the paper's fourth behaviour dimension ("primarily
	// useful for application debugging and testing", §2.1). It may be
	// combined with either timing aspect.
	AspectSemantics
)

// ErrAspectConflict reports an attempt to arm latency and CPU probing
// simultaneously, which the paper forbids to reduce interference.
var ErrAspectConflict = errors.New("probe: latency and CPU aspects must not be armed simultaneously")

// Config assembles a process's probe environment.
type Config struct {
	// Process identifies the logical process the probes run in.
	Process topology.Process
	// Aspects selects latency or CPU monitoring (causality is implicit).
	Aspects Aspect
	// Clock stamps probe windows; nil means the system clock.
	Clock vclock.Clock
	// Meter reads per-thread CPU; nil means no CPU readings.
	Meter cputime.Meter
	// Sink receives emitted records; required.
	Sink Sink
	// Chains mints Function UUIDs; nil means random.
	Chains uuid.Generator
	// Metrics, when set, receives per-operation RED samples from the four
	// probe sites: call/dispatch counts and raw stub/skeleton durations.
	// The probe-side cost is a map probe plus atomic updates — never an
	// allocation — and the duration reads reuse the armed latency
	// aspect's clock samples when available.
	Metrics *metrics.Registry
	// Sampler, when set, decides head-consistent chain sampling: it is
	// consulted exactly once per fresh chain (at the probe that begins
	// it) and a drop decision is stamped into the FTL flags, so every
	// probe on the chain — local and downstream — suppresses its record
	// emission while still advancing the sequence number and feeding
	// Metrics. nil keeps every chain. internal/sampling provides
	// implementations (Fixed, Controlled).
	Sampler HeadSampler
}

// HeadSampler is the head-of-chain sampling decision. Defined here (and
// satisfied structurally by internal/sampling's types) so the probe
// layer does not depend on the sampling package. Implementations must be
// safe for concurrent use from probe hot paths and must not allocate.
type HeadSampler interface {
	SampleHead(chain uuid.UUID) bool
}

// Validate checks the configuration for the paper's constraints.
func (c Config) Validate() error {
	if c.Aspects&AspectLatency != 0 && c.Aspects&AspectCPU != 0 {
		return ErrAspectConflict
	}
	if c.Sink == nil {
		return errors.New("probe: config requires a Sink")
	}
	return nil
}

// RecordKind distinguishes log record flavours.
type RecordKind uint8

// Record kinds.
const (
	// KindEvent is a tracing-event record emitted by one probe activation.
	KindEvent RecordKind = iota + 1
	// KindLink records a oneway call's parent/child chain relationship.
	KindLink
)

// OpID identifies the invoked operation: which component object's interface
// method is being called.
type OpID struct {
	Component string // component (deployment unit) name
	Interface string // IDL interface name
	Operation string // method name
	Object    string // object instance identifier
}

// Record is one monitoring log record. Event records carry the causality
// fields always, wall-clock fields when AspectLatency was armed, and CPU
// fields when AspectCPU was armed. Link records carry only the chain-link
// fields. Records are self-describing so scattered per-process logs can be
// merged by the collector with no further context.
type Record struct {
	Kind RecordKind

	// Identity of the recording site.
	Process    string // logical process ID
	ProcType   string // processor type hosting the process
	Thread     uint64 // logical thread (goroutine) id, unique per process
	Op         OpID   // invoked operation
	Oneway     bool   // asynchronous invocation
	Collocated bool   // collocation-optimized invocation

	// Which aspects were armed when the record was taken; tells the
	// analyzer whether the wall/CPU fields below are meaningful.
	LatencyArmed, CPUArmed bool

	// Semantics holds captured application semantics when AspectSemantics
	// was armed: the rendered input parameters on skel_start records, the
	// rendered results or raised exception on skel_end records.
	Semantics string

	// Causality capture (KindEvent).
	Chain uuid.UUID // Function UUID of the causal chain
	Event ftl.Event // which tracing event
	Seq   uint64    // event sequence number within the chain

	// Latency aspect: the probe's own activation window.
	WallStart, WallEnd time.Time

	// CPU aspect: cumulative per-thread CPU at window edges.
	CPUStart, CPUEnd time.Duration

	// Chain link (KindLink).
	LinkParent    uuid.UUID
	LinkParentSeq uint64
	LinkChild     uuid.UUID
}

// Sink receives records from probes. Implementations must be safe for
// concurrent use; probes on different threads append without coordination.
type Sink interface {
	// Append stores one record.
	Append(Record)
}

// SpanSink is the batched fast path: a sink that can accept all records of
// one probe span — the events a single stub (or skeleton, or collocated)
// activation pair produces on one goroutine — in a single call. When the
// configured Sink implements SpanSink, probe contexts accumulate their
// records locally and emit once at the closing probe, collapsing four lock
// acquisitions per invocation into two (one per side). Record order within
// the span and all seq assignment are exactly those of the unbatched path;
// only the interleaving BETWEEN concurrent spans may differ, which every
// consumer already tolerates (reconstruction orders by (chain, seq)).
//
// Implementations must not retain recs past the call.
type SpanSink interface {
	Sink
	// AppendSpan stores a probe span's records (1–4 of them) atomically
	// with respect to other appends.
	AppendSpan(recs []Record)
}

// BatchSink is the consumer-side bulk path: a sink that can accept a whole
// ship frame's records in one call, so a collector pays one lock round per
// frame instead of one per record. Unlike a span, a batch is any number of
// records of any mix of chains, in arrival order. The telemetry server
// discovers it by type assertion and falls back to per-record Append.
type BatchSink interface {
	// AppendBatch stores recs as if each had been passed to Append in
	// order. recs is borrowed: the telemetry server decodes every frame of
	// a connection into the same slab and overwrites it with the next, so
	// the callee copies what it keeps (a Record's strings are immutable and
	// may be shared) and must not retain recs or a pointer into it past the
	// call.
	AppendBatch(recs []Record)
}

// RecordStore is where collected records come to rest: the insertion side
// of the merged relational store (§3). The collector's chain table writes
// through it and needs nothing else; the full store interface a collector
// node composes over (cluster.Store) embeds it. *logdb.Store and
// *tracestore.Store both satisfy it.
type RecordStore interface {
	// Insert stores recs. Like BatchSink.AppendBatch it borrows them: a
	// decode slab, or chain storage the assembler recycles the moment
	// Insert returns, so an implementation copies (or
	// encodes) what it keeps and must not retain recs or a pointer into it.
	Insert(recs ...Record)
}

// spanBuf accumulates one probe span. Max occupancy is 4 records: a
// collocated span (stub_start, skel_start, skel_end, stub_end) or a oneway
// stub span (stub_start, link, stub_end).
type spanBuf struct {
	recs [4]Record
	n    int
}

var spanPool = sync.Pool{New: func() any { return new(spanBuf) }}

// newSpan returns a span accumulator when the sink supports batching, nil
// otherwise (the immediate-emission path).
func (p *Probes) newSpan() *spanBuf {
	if p.spanSink == nil {
		return nil
	}
	return spanPool.Get().(*spanBuf)
}

// flushSpan emits the accumulated span (if any) and recycles the buffer.
func (p *Probes) flushSpan(sp *spanBuf) {
	if sp == nil {
		return
	}
	if sp.n > 0 {
		p.spanSink.AppendSpan(sp.recs[:sp.n])
		for i := range sp.recs[:sp.n] {
			sp.recs[i] = Record{} // drop string references
		}
		sp.n = 0
	}
	spanPool.Put(sp)
}

// Probes is the per-process probe set. Generated stubs and skeletons call
// its methods at the four Figure-1 probe points.
type Probes struct {
	cfg      Config
	clock    vclock.Clock
	meter    cputime.Meter
	tunnel   *ftl.Tunnel
	metrics  *metrics.Registry
	sampler  HeadSampler
	spanSink SpanSink // non-nil when cfg.Sink supports batched span appends
}

// New validates cfg and builds the process's probe set.
func New(cfg Config) (*Probes, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Probes{cfg: cfg, clock: cfg.Clock, meter: cfg.Meter, metrics: cfg.Metrics, sampler: cfg.Sampler}
	if p.clock == nil {
		p.clock = vclock.System{}
	}
	if p.meter == nil {
		p.meter = cputime.NoopMeter{}
	}
	if ss, ok := cfg.Sink.(SpanSink); ok {
		p.spanSink = ss
	}
	p.tunnel = ftl.NewTunnel(cfg.Chains)
	return p, nil
}

// Tunnel exposes the process's tunnel endpoint; runtime schedulers use it
// to refresh/clear thread annotations (observation O2) and STA loops use
// Swap/Restore around dispatch.
func (p *Probes) Tunnel() *ftl.Tunnel { return p.tunnel }

// Aspects reports the armed aspects.
func (p *Probes) Aspects() Aspect { return p.cfg.Aspects }

// Metrics reports the registry the probes sample into; nil when metrics
// are unarmed.
func (p *Probes) Metrics() *metrics.Registry { return p.metrics }

// Process reports the logical process the probes belong to.
func (p *Probes) Process() topology.Process { return p.cfg.Process }

// SemanticsArmed reports whether application-semantics capture is on;
// generated skeletons consult it before rendering parameter values.
func (p *Probes) SemanticsArmed() bool { return p.cfg.Aspects&AspectSemantics != 0 }

// window captures a probe activation's start readings plus the calling
// thread's identity. The wall/CPU readings are taken FIRST so every cost
// the activation itself incurs — including the runtime.Stack parse that
// resolves the thread identity, the dominant probe cost — falls inside the
// recorded window and is therefore compensated by the latency analysis and
// excluded from self-CPU.
type window struct {
	gid       uint64
	wallStart time.Time
	cpuStart  time.Duration
}

func (p *Probes) openWindow() window {
	var w window
	if p.cfg.Aspects&AspectLatency != 0 {
		w.wallStart = p.clock.Now()
	}
	if p.cfg.Aspects&AspectCPU != 0 {
		w.cpuStart = p.meter.ThreadCPU()
	}
	// Registered dispatch goroutines resolve in ~20ns; everything else
	// falls back to the runtime.Stack parse (still inside the window, so
	// the cost is compensated by the latency analysis either way).
	w.gid = uint64(gls.Self())
	return w
}

// openWindowAt is openWindow for a probe site that already resolved the
// calling thread's identity — the cached-GID hot path. Only the first probe
// of a dispatch pays the runtime.Stack parse; every later probe reuses the
// handle and its window costs only the armed clock readings.
func (p *Probes) openWindowAt(gid uint64) window {
	var w window
	if p.cfg.Aspects&AspectLatency != 0 {
		w.wallStart = p.clock.Now()
	}
	if p.cfg.Aspects&AspectCPU != 0 {
		w.cpuStart = p.meter.ThreadCPU()
	}
	w.gid = gid
	return w
}

// opStats resolves the RED family for op plus the metric start timestamp
// for a probe window, reusing the armed latency aspect's clock sample
// when present so metrics add no clock read of their own. Returns nil
// when no registry is armed.
func (p *Probes) opStats(op OpID, w window) (*metrics.OpStats, time.Time) {
	if p.metrics == nil {
		return nil, time.Time{}
	}
	start := w.wallStart
	if start.IsZero() {
		start = p.clock.Now()
	}
	return p.metrics.Op(metrics.OpKey{Interface: op.Interface, Operation: op.Operation}), start
}

// metricEnd is the end-timestamp counterpart of opStats for a closing
// probe's window.
func (p *Probes) metricEnd(w window) time.Time {
	if !w.wallStart.IsZero() {
		return w.wallStart
	}
	return p.clock.Now()
}

// metricChain is the exemplar identity for a metrics observation: the
// record's chain when head sampling kept it, else zero — the exposition
// must never name a chain that has no records in any store.
func metricChain(f ftl.FTL) metrics.ChainID {
	if !f.Sampled() {
		return metrics.ChainID{}
	}
	return metrics.ChainID(f.Chain)
}

// emit closes the activation window and deposits the record: into the open
// span accumulator when sp is non-nil (batched path), or straight into the
// sink otherwise. Everything a probe does must happen before its emit call
// so the window covers it; the only uncompensated cost is the deposit.
func (p *Probes) emit(sp *spanBuf, w window, op OpID, f ftl.FTL, ev ftl.Event, oneway, colloc bool) {
	p.emitSem(sp, w, op, f, ev, oneway, colloc, "")
}

func (p *Probes) emitSem(sp *spanBuf, w window, op OpID, f ftl.FTL, ev ftl.Event, oneway, colloc bool, sem string) {
	if !f.Sampled() {
		// Head sampling dropped this chain: the FTL still travels and
		// numbers events (so a mid-run rate change never de-syncs
		// sequence numbers between processes), but no record is stored.
		// Metrics were already fed at the probe site — the RED plane
		// observes every call, sampled or not.
		return
	}
	r := Record{
		Semantics:  sem,
		Kind:       KindEvent,
		Process:    p.cfg.Process.ID,
		ProcType:   p.cfg.Process.Processor.Type,
		Thread:     w.gid,
		Op:         op,
		Oneway:     oneway,
		Collocated: colloc,
		Chain:      f.Chain,
		Event:      ev,
		Seq:        f.Seq,
		WallStart:  w.wallStart,
		CPUStart:   w.cpuStart,
	}
	if p.cfg.Aspects&AspectLatency != 0 {
		r.LatencyArmed = true
		r.WallEnd = p.clock.Now()
	}
	if p.cfg.Aspects&AspectCPU != 0 {
		r.CPUArmed = true
		r.CPUEnd = p.meter.ThreadCPU()
	}
	if sp != nil {
		sp.recs[sp.n] = r
		sp.n++
		return
	}
	p.cfg.Sink.Append(r)
}

// StubCtx carries state from a stub-start probe to the matching stub-end.
type StubCtx struct {
	op     OpID
	oneway bool
	gid    uint64 // caller identity resolved once at stub start
	// Wire is the FTL to transport to the skeleton (the hidden in-out
	// parameter of Figure 3). For oneway calls it is the fresh child chain.
	Wire ftl.FTL
	// parent is the caller-side FTL after the stub_start event (oneway
	// calls keep numbering their parent chain through stub_end).
	parent ftl.FTL
	fresh  bool // chain was begun by this call (top-level)
	// sp accumulates this stub activation's records for a single batched
	// span append at StubEnd (nil on the immediate-emission path).
	sp *spanBuf
	// Metric sampling state: the op's RED family (nil when metrics are
	// unarmed) and the stub-start timestamp the round-trip duration is
	// measured from.
	ms     *metrics.OpStats
	mStart time.Time
}

// StubStart is probe 1: the start of the stub, after the client invoked the
// function. It advances the caller's chain, emits stub_start, and returns
// the context holding the FTL to put on the wire.
func (p *Probes) StubStart(op OpID, oneway bool) StubCtx {
	w := p.openWindow()
	f, fresh := p.tunnel.CurrentOrBeginG(w.gid)
	if fresh && p.sampler != nil && !p.sampler.SampleHead(f.Chain) {
		f.Flags |= ftl.FlagDropped
	}
	f.NextSeq()
	ctx := StubCtx{op: op, oneway: oneway, gid: w.gid, parent: f, fresh: fresh, sp: p.newSpan()}
	if ctx.ms, ctx.mStart = p.opStats(op, w); ctx.ms != nil {
		ctx.ms.Calls.AddAt(w.gid, 1)
	}
	var link ftl.ChainLink
	if oneway {
		// Fork the child chain; the link is recorded in the stub start
		// probe per §2.2.
		ctx.Wire, link = p.tunnel.BeginChild(f)
	} else {
		ctx.Wire = f
	}
	p.emit(ctx.sp, w, op, f, ftl.StubStart, oneway, false)
	if oneway && f.Sampled() {
		// The link ties the (kept) parent to its (kept) child chain; a
		// dropped chain tree records neither events nor links.
		p.emitLink(ctx.sp, w.gid, link)
	}
	return ctx
}

// StubEnd is probe 4: the end of the stub, when the response is ready to
// return to the client. For synchronous calls, reply is the FTL carried
// back from the skeleton; for oneway calls it is ignored and the parent
// chain continues. The caller thread's annotation is refreshed so an
// immediately following sibling call continues the chain (Table 1).
func (p *Probes) StubEnd(ctx StubCtx, reply ftl.FTL) {
	// Synchronous stubs return on the goroutine that entered them, so the
	// identity cached at stub start is still the caller's.
	w := p.openWindowAt(ctx.gid)
	f := reply
	if ctx.oneway {
		f = ctx.parent
	}
	f.NextSeq()
	p.tunnel.StoreG(w.gid, f)
	if ctx.ms != nil {
		// Raw stub round trip: stub_start window open to stub_end window
		// open (probe overhead included; the compensated number lives in
		// the online monitor's per-interface digests).
		end := p.metricEnd(w)
		ctx.ms.StubTime.ObserveEx(end.Sub(ctx.mStart), metricChain(f), end.UnixNano())
	}
	p.emit(ctx.sp, w, ctx.op, f, ftl.StubEnd, ctx.oneway, false)
	p.flushSpan(ctx.sp)
}

// SkelCtx carries state from a skeleton-start probe to the matching
// skeleton-end on the dispatch thread.
type SkelCtx struct {
	op     OpID
	oneway bool
	gid    uint64 // dispatch-thread identity resolved once at skeleton start
	// sp accumulates the skeleton pair's records for one batched span
	// append at SkelEnd (nil on the immediate-emission path).
	sp *spanBuf
	// Metric sampling state (see StubCtx).
	ms     *metrics.OpStats
	mStart time.Time
}

// SkelStartSemG is SkelStartG with application semantics attached: sem
// is the rendered input-parameter list the generated skeleton produced.
func (p *Probes) SkelStartSemG(self gls.G, op OpID, wire ftl.FTL, oneway bool, sem string) SkelCtx {
	w := p.openWindowAt(self.ID())
	wire.NextSeq()
	p.tunnel.StoreG(w.gid, wire)
	ctx := SkelCtx{op: op, oneway: oneway, gid: w.gid, sp: p.newSpan()}
	if ctx.ms, ctx.mStart = p.opStats(op, w); ctx.ms != nil {
		ctx.ms.Dispatches.AddAt(w.gid, 1)
	}
	p.emitSem(ctx.sp, w, op, wire, ftl.SkelStart, oneway, false, sem)
	return ctx
}

// SkelEndSem is SkelEnd with application semantics attached: sem renders
// the output parameters or the raised exception.
func (p *Probes) SkelEndSem(ctx SkelCtx, sem string) ftl.FTL {
	// Skeleton start and end run on the same dispatch goroutine; reuse the
	// identity cached in the context.
	w := p.openWindowAt(ctx.gid)
	f, ok := p.tunnel.CurrentG(w.gid)
	if !ok {
		// The implementation (or a buggy scheduler) cleared the slot; the
		// chain is broken and the analyzer will flag an abnormal
		// transition. Emit with a nil chain rather than dropping silently.
		f = ftl.FTL{}
	}
	f.NextSeq()
	p.tunnel.ClearG(w.gid)
	if ctx.ms != nil {
		end := p.metricEnd(w)
		ctx.ms.SkelTime.ObserveEx(end.Sub(ctx.mStart), metricChain(f), end.UnixNano())
	}
	p.emitSem(ctx.sp, w, ctx.op, f, ftl.SkelEnd, ctx.oneway, false, sem)
	p.flushSpan(ctx.sp)
	return f
}

// SkelStart is probe 2: the beginning of the skeleton when the invocation
// request arrives. wire is the FTL unmarshalled from the hidden parameter.
// The dispatch thread's annotation is set so child stubs inside the
// function implementation pick the chain up from TSS (Figure 2).
func (p *Probes) SkelStart(op OpID, wire ftl.FTL, oneway bool) SkelCtx {
	return p.SkelStartG(gls.Self(), op, wire, oneway)
}

// SkelStartG is SkelStart for a dispatch loop that already resolved its
// goroutine identity.
func (p *Probes) SkelStartG(self gls.G, op OpID, wire ftl.FTL, oneway bool) SkelCtx {
	return p.SkelStartSemG(self, op, wire, oneway, "")
}

// SkelEnd is probe 3: the end of the skeleton when the function execution
// concludes. It reads the chain back from TSS (children advanced it),
// emits skel_end, clears the dispatch thread's annotation, and returns the
// FTL to marshal into the reply (synchronous calls only; oneway replies
// discard it).
func (p *Probes) SkelEnd(ctx SkelCtx) ftl.FTL { return p.SkelEndSem(ctx, "") }

// CollocCtx carries state across a collocation-optimized call.
type CollocCtx struct {
	op  OpID
	gid uint64 // caller identity resolved once at the degenerated start pair
	// sp accumulates all four degenerated-pair records for one batched
	// span append at CollocEnd (nil on the immediate-emission path).
	sp *spanBuf
	// Metric sampling state (see StubCtx).
	ms     *metrics.OpStats
	mStart time.Time
}

// CollocStart handles a collocation-optimized invocation: "both stub start
// and skeleton start probes are triggered before the execution falls into
// the user-defined function implementation", degenerated into a single
// probe activation (§2.2). The two events share one activation window.
func (p *Probes) CollocStart(op OpID) CollocCtx {
	w := p.openWindow()
	f, fresh := p.tunnel.CurrentOrBeginG(w.gid)
	if fresh && p.sampler != nil && !p.sampler.SampleHead(f.Chain) {
		f.Flags |= ftl.FlagDropped
	}
	f.NextSeq()
	ctx := CollocCtx{op: op, gid: w.gid, sp: p.newSpan()}
	if ctx.ms, ctx.mStart = p.opStats(op, w); ctx.ms != nil {
		// The degenerated pair is both probe sites at once.
		ctx.ms.Calls.AddAt(w.gid, 1)
		ctx.ms.Dispatches.AddAt(w.gid, 1)
	}
	p.emit(ctx.sp, w, op, f, ftl.StubStart, false, true)
	f.NextSeq()
	p.tunnel.StoreG(w.gid, f)
	p.emit(ctx.sp, w, op, f, ftl.SkelStart, false, true)
	return ctx
}

// CollocEnd emits the degenerated skeleton-end + stub-end pair at function
// return and refreshes the caller's annotation for sibling calls.
func (p *Probes) CollocEnd(ctx CollocCtx) {
	// Collocated calls execute entirely on the caller's goroutine.
	w := p.openWindowAt(ctx.gid)
	f, ok := p.tunnel.CurrentG(w.gid)
	if !ok {
		f = ftl.FTL{}
	}
	f.NextSeq()
	if ctx.ms != nil {
		end := p.metricEnd(w)
		d := end.Sub(ctx.mStart)
		ctx.ms.SkelTime.ObserveEx(d, metricChain(f), end.UnixNano())
		ctx.ms.StubTime.ObserveEx(d, metricChain(f), end.UnixNano())
	}
	p.emit(ctx.sp, w, ctx.op, f, ftl.SkelEnd, false, true)
	f.NextSeq()
	p.tunnel.StoreG(w.gid, f)
	p.emit(ctx.sp, w, ctx.op, f, ftl.StubEnd, false, true)
	p.flushSpan(ctx.sp)
}

func (p *Probes) emitLink(sp *spanBuf, gid uint64, link ftl.ChainLink) {
	r := Record{
		Kind:          KindLink,
		Process:       p.cfg.Process.ID,
		ProcType:      p.cfg.Process.Processor.Type,
		Thread:        gid,
		LinkParent:    link.Parent,
		LinkParentSeq: link.ParentSeq,
		LinkChild:     link.Child,
	}
	if sp != nil {
		sp.recs[sp.n] = r
		sp.n++
		return
	}
	p.cfg.Sink.Append(r)
}
