// Package workload synthesizes large component-based system runs at the
// scale of the paper's commercial embedded system (§4): ~1 MLoC partitioned
// into 32 threads and 4 processes, whose largest monitored run contained
// about 195,000 calls over 801 unique methods in 155 unique interfaces
// from 176 unique components.
//
// The generator builds a random component catalog with those cardinalities
// and drives the real probe machinery (stub/skeleton probe sequences, FTL
// propagation through the per-process tunnels, oneway chain forks) from a
// configurable number of client threads until the target call count is
// reached. The output is the same record stream a real instrumented
// deployment produces, which is what the Figure-5 analyzer-scalability
// experiment consumes.
package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"causeway/internal/gls"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/topology"
	"causeway/internal/uuid"
)

// Config sizes a synthetic run. The zero value of any field selects the
// commercial-system default.
type Config struct {
	Processes  int // default 4
	Threads    int // client threads, default 32
	Components int // default 176
	Interfaces int // default 155
	Methods    int // default 801
	Calls      int // target invocation count, default 195000
	MaxDepth   int // call-tree depth bound, default 6
	MaxFanout  int // children per body bound, default 3
	// OnewayPermille is the per-call probability of a oneway invocation in
	// permille; default 50 (5%).
	OnewayPermille int
	Seed           int64
	// Aspects arms additional probe aspects on every process (e.g.
	// probe.AspectLatency for wall-clock windows); default causality only.
	Aspects probe.Aspect
}

func (c *Config) applyDefaults() {
	if c.Processes <= 0 {
		c.Processes = 4
	}
	if c.Threads <= 0 {
		c.Threads = 32
	}
	if c.Components <= 0 {
		c.Components = 176
	}
	if c.Interfaces <= 0 {
		c.Interfaces = 155
	}
	if c.Methods <= 0 {
		c.Methods = 801
	}
	if c.Calls <= 0 {
		c.Calls = 195000
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 6
	}
	if c.MaxFanout <= 0 {
		c.MaxFanout = 3
	}
	if c.OnewayPermille <= 0 {
		c.OnewayPermille = 50
	}
}

// Method is one catalog entry: a method on an interface of a component
// object hosted by a process.
type Method struct {
	Op      probe.OpID
	Process string
}

// System is a completed synthetic run.
type System struct {
	Config  Config
	Catalog []Method
	Sinks   map[string]*probe.MemorySink
	Probes  map[string]*probe.Probes
}

// Generate builds the catalog and executes the run.
func Generate(cfg Config) (*System, error) {
	cfg.applyDefaults()
	if cfg.Interfaces < 1 || cfg.Methods < cfg.Interfaces || cfg.Components < 1 {
		return nil, fmt.Errorf("workload: inconsistent catalog sizes %+v", cfg)
	}
	r := rand.New(rand.NewSource(cfg.Seed))

	procTypes := []string{"pa-risc", "x86", "vxworks-ppc"}
	sys := &System{
		Config: cfg,
		Sinks:  make(map[string]*probe.MemorySink, cfg.Processes),
		Probes: make(map[string]*probe.Probes, cfg.Processes),
	}
	procs := make([]string, cfg.Processes)
	for i := 0; i < cfg.Processes; i++ {
		id := fmt.Sprintf("proc%02d", i)
		procs[i] = id
		sink := &probe.MemorySink{}
		p, err := probe.New(probe.Config{
			Process: topology.Process{
				ID:        id,
				Processor: topology.Processor{ID: id + "-cpu", Type: procTypes[i%len(procTypes)]},
			},
			Aspects: cfg.Aspects,
			Sink:    sink,
			Chains:  &uuid.SequentialGenerator{Seed: uint64(cfg.Seed) + uint64(i)},
		})
		if err != nil {
			return nil, err
		}
		sys.Sinks[id] = sink
		sys.Probes[id] = p
	}

	// Catalog. The paper's system has more components than interfaces (176
	// vs 155): several components implement the same interface. Each
	// component gets one interface round-robin (guaranteeing both coverages
	// once enough calls are drawn), and method j belongs to interface
	// j mod Interfaces, so all Methods distinct operations exist. A catalog
	// entry is one callable (component, interface, method) triple.
	compProc := make([]string, cfg.Components)
	for i := range compProc {
		compProc[i] = procs[r.Intn(len(procs))]
	}
	for comp := 0; comp < cfg.Components; comp++ {
		iface := comp % cfg.Interfaces
		for m := iface; m < cfg.Methods; m += cfg.Interfaces {
			sys.Catalog = append(sys.Catalog, Method{
				Op: probe.OpID{
					Component: fmt.Sprintf("comp%03d", comp),
					Interface: fmt.Sprintf("Iface%03d", iface),
					Operation: fmt.Sprintf("m%03d_%03d", iface, m/cfg.Interfaces),
					Object:    fmt.Sprintf("obj%03d", comp),
				},
				Process: compProc[comp],
			})
		}
	}

	// Execute: each client thread runs call trees until the global budget
	// is spent. The counter over-shoots by at most one tree per thread.
	var calls atomic.Int64
	var wg sync.WaitGroup
	for t := 0; t < cfg.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			// Every probe of the run fires on this goroutine: registered, it
			// resolves itself without a stack parse, under its runtime id.
			gls.Register()
			defer gls.Unregister()
			w := &worker{
				sys:  sys,
				cfg:  cfg,
				rand: rand.New(rand.NewSource(cfg.Seed + int64(t)*7919)),
				home: procs[t%len(procs)],
			}
			for calls.Load() < int64(cfg.Calls) {
				n := w.callTree(w.home, 0)
				calls.Add(int64(n))
				// A fresh top-level chain per tree: clear the client
				// thread's annotation.
				sys.Probes[w.home].Tunnel().Clear()
			}
		}(t)
	}
	wg.Wait()
	return sys, nil
}

type worker struct {
	sys  *System
	cfg  Config
	rand *rand.Rand
	home string
}

// callTree performs one invocation (and its random subtree) issued from
// callerProc, returning the number of invocations performed. The whole
// simulation runs on the worker goroutine; per-process tunnels keep the
// caller- and callee-side thread-specific state separate exactly as two
// distinct processes would, and the FTL rides the probe contexts as it
// would ride the wire.
func (w *worker) callTree(callerProc string, depth int) int {
	m := w.sys.Catalog[w.rand.Intn(len(w.sys.Catalog))]
	caller := w.sys.Probes[callerProc]
	callee := w.sys.Probes[m.Process]

	oneway := w.rand.Intn(1000) < w.cfg.OnewayPermille
	n := 1
	if oneway {
		sctx := caller.StubStart(m.Op, true)
		skctx := callee.SkelStart(m.Op, sctx.Wire, true)
		n += w.body(m.Process, depth)
		callee.SkelEnd(skctx)
		caller.StubEnd(sctx, sctx.Wire) // parent chain continues
		return n
	}
	collocated := callerProc == m.Process && w.rand.Intn(4) == 0
	if collocated {
		cctx := caller.CollocStart(m.Op)
		n += w.body(m.Process, depth)
		caller.CollocEnd(cctx)
		return n
	}
	sctx := caller.StubStart(m.Op, false)
	skctx := callee.SkelStart(m.Op, sctx.Wire, false)
	n += w.body(m.Process, depth)
	reply := callee.SkelEnd(skctx)
	caller.StubEnd(sctx, reply)
	return n
}

func (w *worker) body(proc string, depth int) int {
	if depth >= w.cfg.MaxDepth {
		return 0
	}
	n := 0
	for i := 0; i < w.rand.Intn(w.cfg.MaxFanout+1); i++ {
		n += w.callTree(proc, depth+1)
	}
	return n
}

// Store collects every process's records into a fresh log store — the
// collector step of §3.
func (s *System) Store() *logdb.Store {
	db := logdb.NewStore()
	for _, sink := range s.Sinks {
		db.Insert(sink.Snapshot()...)
	}
	return db
}
