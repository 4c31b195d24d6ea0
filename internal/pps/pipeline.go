package pps

import (
	"fmt"
	"time"

	"causeway/internal/busy"
	"causeway/internal/cputime"
	"causeway/internal/ftl"
	"causeway/internal/orb"
	"causeway/internal/pps/ppsgen"
	"causeway/internal/probe"
	"causeway/internal/topology"
	"causeway/internal/transport"
	"causeway/internal/uuid"
)

// Component names, in pipeline order.
const (
	CompSubmitter   = "submitter"
	CompSpooler     = "spooler"
	CompInterpreter = "interpreter"
	CompRenderer    = "renderer"
	CompColor       = "colorconverter"
	CompHalftoner   = "halftoner"
	CompCompressor  = "compressor"
	CompEngine      = "markingengine"
	CompFinisher    = "finisher"
	CompTracker     = "jobtracker"
	CompNotifier    = "notifier"
)

// Components lists all 11 PPS components.
var Components = []string{
	CompSubmitter, CompSpooler, CompInterpreter, CompRenderer, CompColor,
	CompHalftoner, CompCompressor, CompEngine, CompFinisher, CompTracker,
	CompNotifier,
}

// Layout assigns components to logical processes.
type Layout map[string]int

// Monolithic puts all 11 components into a single process — the paper's
// "monolithic single-thread configuration" used for interference baselines.
func Monolithic() Layout {
	l := make(Layout, len(Components))
	for _, c := range Components {
		l[c] = 0
	}
	return l
}

// FourProcess is the paper's single-processor 4-process configuration:
// control (submitter/spooler/tracker/notifier), RIP (interpreter/renderer),
// imaging (color/halftone/compress), engine (marking/finisher).
func FourProcess() Layout {
	return Layout{
		CompSubmitter: 0, CompSpooler: 0, CompTracker: 0, CompNotifier: 0,
		CompInterpreter: 1, CompRenderer: 1,
		CompColor: 2, CompHalftoner: 2, CompCompressor: 2,
		CompEngine: 3, CompFinisher: 3,
	}
}

// processCount returns the number of distinct processes a layout uses.
func (l Layout) processCount() int {
	max := 0
	for _, p := range l {
		if p > max {
			max = p
		}
	}
	return max + 1
}

// Options configures a pipeline deployment.
type Options struct {
	// Network hosts the in-process endpoints; required.
	Network *transport.InprocNetwork
	// Layout assigns components to processes; default FourProcess.
	Layout Layout
	// Instrumented selects instrumented stubs/skeletons.
	Instrumented bool
	// Aspects arms latency or CPU probing.
	Aspects probe.Aspect
	// Policy is the server threading policy.
	Policy orb.PolicyKind
	// DisableCollocation forces same-process calls through the full path.
	DisableCollocation bool
	// PinDispatch locks dispatches to OS threads (real CPU metering).
	PinDispatch bool
	// Work is the servant CPU burner; default busy.Iters(units*2000).
	Work WorkFunc
	// MeterFor supplies each process's CPU meter (nil: none).
	MeterFor func(proc string) cputime.Meter
}

// Pipeline is a deployed PPS instance.
type Pipeline struct {
	ORBs       []*orb.ORB
	Sinks      map[string]*probe.MemorySink
	Deployment *topology.Deployment
	Submitter  ppsgen.JobSubmitter
	Tracker    ppsgen.JobTracker
	ClientORB  *orb.ORB

	notifier     *notifier
	instrumented bool
}

// procTypes gives the 4-process configuration the paper's platform mix.
var procTypes = []string{"pa-risc", "x86", "x86", "vxworks-ppc"}

// Build deploys the pipeline.
func Build(opts Options) (*Pipeline, error) {
	if opts.Network == nil {
		return nil, fmt.Errorf("pps: options require Network")
	}
	if opts.Layout == nil {
		opts.Layout = FourProcess()
	}
	if opts.Work == nil {
		opts.Work = func(units int) { busy.Iters(units * 2000) }
	}
	for _, c := range Components {
		if _, ok := opts.Layout[c]; !ok {
			return nil, fmt.Errorf("pps: layout misses component %q", c)
		}
	}

	nproc := opts.Layout.processCount()
	p := &Pipeline{
		Sinks:        make(map[string]*probe.MemorySink, nproc+1),
		Deployment:   topology.NewDeployment(),
		instrumented: opts.Instrumented,
	}

	newProcess := func(id string, ptype string, seed uint64) (*orb.ORB, error) {
		proc := topology.Process{ID: id, Processor: topology.Processor{ID: id + "-cpu", Type: ptype}}
		if err := p.Deployment.Add(proc); err != nil {
			return nil, err
		}
		sink := &probe.MemorySink{}
		p.Sinks[id] = sink
		var meter cputime.Meter
		if opts.MeterFor != nil {
			meter = opts.MeterFor(id)
		}
		probes, err := probe.New(probe.Config{
			Process: proc,
			Aspects: opts.Aspects,
			Meter:   meter,
			Sink:    sink,
			Chains:  &uuid.SequentialGenerator{Seed: seed},
		})
		if err != nil {
			return nil, err
		}
		return orb.New(orb.Config{
			Process:            proc,
			Probes:             probes,
			Instrumented:       opts.Instrumented,
			Policy:             opts.Policy,
			Network:            opts.Network,
			DisableCollocation: opts.DisableCollocation,
			PinDispatch:        opts.PinDispatch,
		})
	}

	endpoints := make([]string, nproc)
	for i := 0; i < nproc; i++ {
		id := fmt.Sprintf("pps%d", i)
		o, err := newProcess(id, procTypes[i%len(procTypes)], uint64(i)+10)
		if err != nil {
			p.Shutdown()
			return nil, err
		}
		p.ORBs = append(p.ORBs, o)
		ep, err := o.ListenInproc(id)
		if err != nil {
			p.Shutdown()
			return nil, err
		}
		endpoints[i] = ep
	}

	// A dedicated client process drives the pipeline.
	clientORB, err := newProcess("ppsclient", "x86", 99)
	if err != nil {
		p.Shutdown()
		return nil, err
	}
	p.ClientORB = clientORB

	// ref builds a Ref to a component from the perspective of the process
	// hosting `from` (for inter-servant stubs) or the client.
	ifaceOf := map[string]string{
		CompSubmitter: "JobSubmitter", CompSpooler: "Spooler",
		CompInterpreter: "Interpreter", CompRenderer: "Renderer",
		CompColor: "ColorConverter", CompHalftoner: "Halftoner",
		CompCompressor: "Compressor", CompEngine: "MarkingEngine",
		CompFinisher: "Finisher", CompTracker: "JobTracker",
		CompNotifier: "Notifier",
	}
	ref := func(from *orb.ORB, comp string) *orb.Ref {
		proc := opts.Layout[comp]
		return from.RefTo(endpoints[proc], comp, ifaceOf[comp], comp)
	}
	orbOf := func(comp string) *orb.ORB { return p.ORBs[opts.Layout[comp]] }

	// Wire servants with downstream stubs (each stub resolved through the
	// servant's own hosting ORB so collocation optimization applies).
	trk := newJobTracker(opts.Work)
	ntf := &notifier{work: opts.Work}
	p.notifier = ntf

	sp := &spooler{
		work:        opts.Work,
		interpreter: ppsgen.NewInterpreterStub(ref(orbOf(CompSpooler), CompInterpreter)),
		renderer:    ppsgen.NewRendererStub(ref(orbOf(CompSpooler), CompRenderer)),
		color:       ppsgen.NewColorConverterStub(ref(orbOf(CompSpooler), CompColor)),
		halftoner:   ppsgen.NewHalftonerStub(ref(orbOf(CompSpooler), CompHalftoner)),
		compressor:  ppsgen.NewCompressorStub(ref(orbOf(CompSpooler), CompCompressor)),
		engine:      ppsgen.NewMarkingEngineStub(ref(orbOf(CompSpooler), CompEngine)),
		finisher:    ppsgen.NewFinisherStub(ref(orbOf(CompSpooler), CompFinisher)),
		tracker:     ppsgen.NewJobTrackerStub(ref(orbOf(CompSpooler), CompTracker)),
	}
	sub := &submitter{
		work:     opts.Work,
		spooler:  ppsgen.NewSpoolerStub(ref(orbOf(CompSubmitter), CompSpooler)),
		tracker:  ppsgen.NewJobTrackerStub(ref(orbOf(CompSubmitter), CompTracker)),
		notifier: ppsgen.NewNotifierStub(ref(orbOf(CompSubmitter), CompNotifier)),
	}

	register := func(comp string, err error) error {
		if err != nil {
			return fmt.Errorf("pps: register %s: %w", comp, err)
		}
		return nil
	}
	steps := []error{
		register(CompSubmitter, ppsgen.RegisterJobSubmitter(orbOf(CompSubmitter), CompSubmitter, CompSubmitter, sub)),
		register(CompSpooler, ppsgen.RegisterSpooler(orbOf(CompSpooler), CompSpooler, CompSpooler, sp)),
		register(CompInterpreter, ppsgen.RegisterInterpreter(orbOf(CompInterpreter), CompInterpreter, CompInterpreter, &interpreter{work: opts.Work})),
		register(CompRenderer, ppsgen.RegisterRenderer(orbOf(CompRenderer), CompRenderer, CompRenderer, &renderer{work: opts.Work})),
		register(CompColor, ppsgen.RegisterColorConverter(orbOf(CompColor), CompColor, CompColor, &colorConverter{work: opts.Work})),
		register(CompHalftoner, ppsgen.RegisterHalftoner(orbOf(CompHalftoner), CompHalftoner, CompHalftoner, &halftoner{work: opts.Work})),
		register(CompCompressor, ppsgen.RegisterCompressor(orbOf(CompCompressor), CompCompressor, CompCompressor, &compressor{work: opts.Work})),
		register(CompEngine, ppsgen.RegisterMarkingEngine(orbOf(CompEngine), CompEngine, CompEngine, &markingEngine{work: opts.Work})),
		register(CompFinisher, ppsgen.RegisterFinisher(orbOf(CompFinisher), CompFinisher, CompFinisher, &finisher{work: opts.Work})),
		register(CompTracker, ppsgen.RegisterJobTracker(orbOf(CompTracker), CompTracker, CompTracker, trk)),
		register(CompNotifier, ppsgen.RegisterNotifier(orbOf(CompNotifier), CompNotifier, CompNotifier, ntf)),
	}
	for _, err := range steps {
		if err != nil {
			p.Shutdown()
			return nil, err
		}
	}

	p.Submitter = ppsgen.NewJobSubmitterStub(ref(clientORB, CompSubmitter))
	p.Tracker = ppsgen.NewJobTrackerStub(ref(clientORB, CompTracker))
	return p, nil
}

// RunJobs submits n jobs of the given shape, one causal chain each.
func (p *Pipeline) RunJobs(n int, pages int32, color bool) error {
	for i := 0; i < n; i++ {
		job := ppsgen.Job{
			Id:    int32(i + 1),
			Name:  fmt.Sprintf("job-%d", i+1),
			Pages: pages,
			Dpi:   600,
			Color: color,
		}
		if _, err := p.Submitter.Submit(job); err != nil {
			return fmt.Errorf("pps: submit job %d: %w", job.Id, err)
		}
		p.ClientORB.Probes().Tunnel().Clear()
	}
	return nil
}

// Events returns the notifications the notifier received.
func (p *Pipeline) Events() []string { return p.notifier.Events() }

// AwaitQuiescent waits until asynchronous notifications for n jobs landed
// and, on an instrumented pipeline, every notification's dispatch has closed:
// Notify logs its event before the notifier skeleton's skel_end probe fires,
// so a snapshot taken on the event alone can miss that record.
func (p *Pipeline) AwaitQuiescent(jobs int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		n := len(p.notifier.Events())
		closed := n
		if p.instrumented {
			closed = p.notifyEnds()
		}
		if n >= jobs && closed >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("pps: %d/%d notifications, %d of them closed, after %v", n, jobs, closed, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// notifyEnds counts the notifier dispatches that have closed.
func (p *Pipeline) notifyEnds() int {
	n := 0
	for _, r := range p.Records() {
		if r.Event == ftl.SkelEnd && r.Op.Component == CompNotifier {
			n++
		}
	}
	return n
}

// Records snapshots every process's monitoring records.
func (p *Pipeline) Records() []probe.Record {
	var out []probe.Record
	for _, s := range p.Sinks {
		out = append(out, s.Snapshot()...)
	}
	return out
}

// Shutdown stops every ORB.
func (p *Pipeline) Shutdown() {
	for _, o := range p.ORBs {
		o.Shutdown()
	}
	if p.ClientORB != nil {
		p.ClientORB.Shutdown()
	}
}
