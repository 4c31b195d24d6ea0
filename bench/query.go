package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"causeway/internal/analysis"
	"causeway/internal/probe"
	"causeway/internal/render"
	"causeway/internal/tracestore"
	"causeway/internal/uuid"
)

// Constants of the query workload.
const (
	// queryPasses of the stream fill the store: 4 × 48 750 calls is the
	// paper's Figure-5 run, 195 000 calls.
	queryPasses = 4
	// pointReads is how many seeded single-chain reads one window makes.
	pointReads = 1000
)

// queryEnv is a closed trace store on disk, built by set-up.
type queryEnv struct {
	p       params
	tr      *tracer
	dir     string
	st      *stream
	records int
}

func setupQuery(p params, tr *tracer) (env, error) {
	st, err := generateStream(p.seed, p.scale)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(p.tmp, "query-")
	if err != nil {
		return nil, err
	}
	store, err := tracestore.Open(dir, tracestore.Options{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("open store: %w", err)
	}
	// Inserted the way the assembler inserts: a few hundred records a call.
	batch := make([]probe.Record, 0, 256)
	for pass := 0; pass < queryPasses; pass++ {
		for i := 0; i < len(st.recs); i += cap(batch) {
			batch = batch[:0]
			for _, r := range st.recs[i:min(i+cap(batch), len(st.recs))] {
				rekey(&r, pass)
				batch = append(batch, r)
			}
			store.Insert(batch...)
		}
	}
	records := store.Len()
	if err := store.Close(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("close store: %w", err)
	}
	return &queryEnv{p: p, tr: tr, dir: dir, st: st, records: records}, nil
}

func (e *queryEnv) close() { os.RemoveAll(e.dir) }

// step times one call into a layer and, when traced, records it as a span
// under parent.
func (e *queryEnv) step(parent int64, name string, records int, fn func()) time.Duration {
	start := time.Now()
	var ts int64
	if e.tr != nil {
		ts = e.tr.now()
	}
	fn()
	d := time.Since(start)
	if e.tr != nil {
		e.tr.add(span{Parent: parent, Name: name, StartNS: ts, EndNS: e.tr.now(), Records: records})
	}
	return d
}

// reconstruct is what every `causectl -store` invocation begins with: open
// the store, rebuild the DSCG on all cores, attach latency and CPU.
func (e *queryEnv) reconstruct(parent int64) (*tracestore.Store, *analysis.DSCG, error) {
	var store *tracestore.Store
	var err error
	e.step(parent, spanOpen, e.records, func() { store, err = tracestore.Open(e.dir, tracestore.Options{}) })
	if err != nil {
		return nil, nil, fmt.Errorf("open store: %w", err)
	}
	var g *analysis.DSCG
	e.step(parent, spanReconstruct, e.records, func() { g = analysis.ReconstructParallel(store, runtime.GOMAXPROCS(0)) })
	e.step(parent, spanLatencyCPU, e.records, func() { g.ComputeLatency(); g.ComputeCPU() })
	return store, g, nil
}

// iteration opens a query span when traced.
func (e *queryEnv) iteration(kind string) (id int64) {
	if e.tr != nil {
		id = e.tr.reserve(spanQuery+"."+kind, e.tr.now())
	}
	return id
}

func (e *queryEnv) endIteration(id int64) {
	if e.tr != nil {
		e.tr.close(id, e.tr.now(), e.records)
	}
}

// top is `causectl -store DIR top`: reconstruct, aggregate per interface,
// rank by p95.
func (e *queryEnv) top(m *measurement) (time.Duration, error) {
	start := time.Now()
	id := e.iteration("top")
	store, g, err := e.reconstruct(id)
	if err != nil {
		return 0, err
	}
	var stats []analysis.InterfaceStat
	e.step(id, spanIfaceStats, e.records, func() {
		stats = analysis.InterfaceStats(g, runtime.GOMAXPROCS(0))
		sort.SliceStable(stats, func(i, j int) bool { return stats[i].P95() > stats[j].P95() })
	})
	err = store.Close()
	e.endIteration(id)
	d := time.Since(start)
	// The generator's catalog is the oracle: every call is a node, every
	// interface it drew from is a row.
	if want := e.st.calls * queryPasses; g.Nodes() != want {
		m.fail("top: DSCG has %d nodes, the generator made %d calls", g.Nodes(), want)
	}
	if len(stats) != e.st.interfaces {
		m.fail("top: %d interfaces ranked, the generator used %d", len(stats), e.st.interfaces)
	}
	if len(g.Anomalies) != 0 || len(g.Broken) != 0 {
		m.fail("top: %d anomalies and %d broken chains in a clean store", len(g.Anomalies), len(g.Broken))
	}
	return d, err
}

// show is `causectl -store DIR show PREFIX`: reconstruct, locate one tree,
// render it, aggregate within it.
func (e *queryEnv) show(m *measurement, want uuid.UUID) (time.Duration, error) {
	start := time.Now()
	id := e.iteration("show")
	store, g, err := e.reconstruct(id)
	if err != nil {
		return 0, err
	}
	var match *analysis.Tree
	for _, t := range g.Trees {
		if t.Chain == want {
			match = t
		}
	}
	if match == nil {
		m.fail("show: chain %s not found", want)
	} else {
		sub := &analysis.DSCG{Trees: []*analysis.Tree{match}}
		nodes := 0
		for _, r := range match.Roots {
			nodes += r.Count()
		}
		e.step(id, spanRender, nodes, func() {
			err = render.DSCGText(io.Discard, sub, -1, 0)
			analysis.InterfaceStats(sub, 1)
		})
	}
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	e.endIteration(id)
	return time.Since(start), err
}

func (e *queryEnv) measure(seconds float64) (*measurement, error) {
	m := &measurement{layer: make(map[string]float64)}
	rng := rand.New(rand.NewSource(e.p.seed))

	runtime.GC()
	start := time.Now()
	// Every iteration is a sample of the time and the process CPU one
	// reconstruction of the store takes.
	var tops, shows, walls, cpus []float64
	timed := func(query func() (time.Duration, error)) (float64, error) {
		cpu0 := cpuTime()
		d, err := query()
		cpus = append(cpus, float64(cpuTime()-cpu0)/float64(time.Microsecond))
		walls = append(walls, d.Seconds())
		return d.Seconds(), err
	}
	for time.Since(start).Seconds() < seconds {
		d, err := timed(func() (time.Duration, error) { return e.top(m) })
		if err != nil {
			return nil, err
		}
		tops = append(tops, d)
		want := e.st.roots[rng.Intn(len(e.st.roots))]
		d, err = timed(func() (time.Duration, error) { return e.show(m, want) })
		if err != nil {
			return nil, err
		}
		shows = append(shows, d)
	}
	queryWall := time.Since(start)

	// Point reads: what a /chainz lookup or `show` on an indexed store
	// would do — one chain's events back from disk, parsed.
	store, err := tracestore.Open(e.dir, tracestore.Options{})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	var chains []uuid.UUID
	chainsDur := e.step(0, "tracestore.chains", e.records, func() { chains = store.Chains() })
	var readUS, parseUS []float64
	for i := 0; i < pointReads; i++ {
		c := chains[rng.Intn(len(chains))]
		t0 := time.Now()
		events := store.Events(c)
		t1 := time.Now()
		parsed := analysis.ParseChainEvents(c, events)
		t2 := time.Now()
		readUS = append(readUS, float64(t1.Sub(t0))/float64(time.Microsecond))
		parseUS = append(parseUS, float64(t2.Sub(t1))/float64(time.Microsecond))
		if len(events) == 0 || parsed.Empty || len(parsed.Broken) != 0 {
			m.fail("point read of chain %s: %d events, broken %d", c, len(events), len(parsed.Broken))
		}
	}
	var seq time.Duration
	if e.tr != nil {
		// The single-threaded baseline, once.
		seq = e.step(0, spanReconstruct+"_seq", e.records, func() { analysis.ReconstructParallel(store, 1) })
	}
	if err := store.Close(); err != nil {
		return nil, fmt.Errorf("close store: %w", err)
	}

	iterations := len(tops) + len(shows)
	m.attempted = int64(iterations + pointReads)
	// The analyst's records are the store's, reconstructed once per
	// iteration; rate and cost are those of the median iteration, top or
	// show, so that one iteration a neighbour's burst fell on does not set
	// the run's figure.
	m.window = queryWall
	m.recordsPerS = ratio(float64(e.records), median(walls))
	m.cpuUSPerRecord = ratio(median(cpus), float64(e.records))
	m.latencyMS = median(tops) * 1000
	m.layer["query_top_s"] = median(tops)
	m.layer["query_show_s"] = median(shows)
	m.layer["tracestore.events_p50_us"] = median(readUS)
	m.layer["tracestore.events_p99_us"] = quantile(readUS, 0.99)
	m.layer["tracestore.chains_ms"] = float64(chainsDur) / 1e6
	m.layer["analysis.parse_us_per_chain"] = median(parseUS)
	m.layer["analysis.reconstruct_seq_s"] = seq.Seconds()
	m.layer["tracestore.bytes_per_record"] = ratio(float64(dirSize(e.dir)), float64(e.records))
	return m, nil
}
