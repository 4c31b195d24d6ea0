package streamrecon

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"causeway/internal/analysis"
	"causeway/internal/ftl"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/render"
	"causeway/internal/sampling"
	"causeway/internal/topology"
	"causeway/internal/uuid"
)

// fakeClock is a manually advanced clock shared by assembler and tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// newProbes builds a probe set whose records land in a MemorySink.
func newProbes(t *testing.T, seed uint64) (*probe.Probes, *probe.MemorySink) {
	t.Helper()
	sink := &probe.MemorySink{}
	p, err := probe.New(probe.Config{
		Process: topology.Process{ID: "proc", Processor: topology.Processor{ID: "proc", Type: "x86"}},
		Aspects: probe.AspectLatency,
		Sink:    sink,
		Chains:  &uuid.SequentialGenerator{Seed: seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, sink
}

// oneCall drives the four-probe synchronous pattern once and clears the
// caller annotation so the next call starts a fresh chain.
func oneCall(p *probe.Probes, op probe.OpID) {
	ctx := p.StubStart(op, false)
	sctx := p.SkelStart(op, ctx.Wire, false)
	p.StubEnd(ctx, p.SkelEnd(sctx))
	p.Tunnel().Clear()
}

func newAssembler(t *testing.T, clock *fakeClock, mut func(*Config)) (*Assembler, *logdb.Store) {
	t.Helper()
	store := logdb.NewStore()
	cfg := Config{
		Store:      store,
		Quiescence: 100 * time.Millisecond,
		StaleAfter: 10 * time.Second,
		Clock:      clock.Now,
	}
	if mut != nil {
		mut(&cfg)
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, store
}

func feed(a *Assembler, recs []probe.Record) {
	for _, r := range recs {
		a.Append(r)
	}
}

func checkLedger(t *testing.T, a *Assembler) Ledger {
	t.Helper()
	led := a.Ledger()
	if led.Appended != led.Persisted+led.Discarded+led.Buffered {
		t.Fatalf("ledger does not balance: %+v", led)
	}
	return led
}

func TestCompleteChainEvictsAfterQuiescence(t *testing.T) {
	clock := newFakeClock()
	a, store := newAssembler(t, clock, nil)
	p, sink := newProbes(t, 1)
	op := probe.OpID{Component: "c", Interface: "I", Operation: "ping", Object: "o"}
	oneCall(p, op)
	feed(a, sink.Snapshot())

	// Not yet quiescent: nothing moves.
	if n := a.Tick(); n != 0 {
		t.Fatalf("premature eviction of %d chains", n)
	}
	if a.OpenChains() != 1 {
		t.Fatalf("open chains = %d, want 1", a.OpenChains())
	}

	clock.Advance(200 * time.Millisecond)
	if n := a.Tick(); n != 1 {
		t.Fatalf("evicted %d chains, want 1", n)
	}
	if store.Len() != 4 {
		t.Fatalf("store holds %d records, want 4", store.Len())
	}
	led := checkLedger(t, a)
	if led.Appended != 4 || led.Persisted != 4 || led.Buffered != 0 {
		t.Fatalf("ledger = %+v", led)
	}
	comps, newest := a.Feed(0, 0)
	if newest != 1 || len(comps) != 1 {
		t.Fatalf("feed = %d entries, newest %d", len(comps), newest)
	}
	c := comps[0]
	if c.Reason != "complete" || !c.Persisted || c.Broken || c.Anomalous ||
		c.Op.Operation != "ping" || c.Roots != 1 || c.Nodes != 1 {
		t.Fatalf("completion = %+v", c)
	}
	if !c.HasLatency {
		t.Fatal("latency aspect armed but completion has no latency")
	}
}

// TestIncompleteChainWaitsThenGoesStale: a chain missing its closing
// records survives quiescence (it parses broken, so it may still be
// mid-flight) and is evicted as broken only past StaleAfter — always
// persisted, even under a drop-everything tail policy.
func TestIncompleteChainWaitsThenGoesStale(t *testing.T) {
	clock := newFakeClock()
	a, store := newAssembler(t, clock, func(c *Config) {
		c.Tail = &sampling.TailPolicy{NormalRate: 0}
	})
	p, sink := newProbes(t, 2)
	op := probe.OpID{Component: "c", Interface: "I", Operation: "hang", Object: "o"}
	ctx := p.StubStart(op, false)
	_ = p.SkelStart(op, ctx.Wire, false) // chain never closes
	feed(a, sink.Snapshot())

	clock.Advance(time.Second) // quiescent but not stale
	if n := a.Tick(); n != 0 {
		t.Fatalf("broken-parsing chain evicted before StaleAfter (%d)", n)
	}
	clock.Advance(10 * time.Second)
	if n := a.Tick(); n != 1 {
		t.Fatalf("stale chain not evicted (%d)", n)
	}
	comps, _ := a.Feed(0, 0)
	if c := comps[0]; c.Reason != "stale" || !c.Broken || !c.Persisted {
		t.Fatalf("completion = %+v", c)
	}
	if store.Len() != 2 {
		t.Fatalf("broken chain not persisted: store holds %d", store.Len())
	}
	checkLedger(t, a)
}

// judged reads causeway_assembler_chains_judged_total off WriteMetrics.
func judged(t *testing.T, a *Assembler) int {
	t.Helper()
	var sb strings.Builder
	a.WriteMetrics(&sb)
	const name = "causeway_assembler_chains_judged_total "
	i := strings.Index(sb.String(), name)
	if i < 0 {
		t.Fatalf("no %sin:\n%s", name, sb.String())
	}
	var n int
	if _, err := fmt.Sscanf(sb.String()[i+len(name):], "%d", &n); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestChainJudgedOnlyWhenChanged: only a chain that parks records is
// parsed, and only once per change — not tick after tick. A chain whose
// records arrived in order is never parsed: its verdict was tallied as its
// roots closed. Evictions are what they always were.
func TestChainJudgedOnlyWhenChanged(t *testing.T) {
	clock := newFakeClock()
	a, store := newAssembler(t, clock, nil)
	p, sink := newProbes(t, 3)
	op := probe.OpID{Component: "c", Interface: "I", Operation: "slow", Object: "o"}
	ctx := p.StubStart(op, false)
	sctx := p.SkelStart(op, ctx.Wire, false)
	reply := p.SkelEnd(sctx)
	p.StubEnd(ctx, reply)
	recs := sink.Snapshot()

	// In order, still in progress: waited on, never parsed.
	a.AppendBatch(recs[:2])
	clock.Advance(200 * time.Millisecond) // past Quiescence, far from StaleAfter
	for i := 0; i < 20; i++ {
		if n := a.Tick(); n != 0 {
			t.Fatalf("tick %d evicted an incomplete chain", i)
		}
		clock.Advance(50 * time.Millisecond)
	}
	if n := judged(t, a); n != 0 {
		t.Fatalf("in-order chain parsed %d times over 20 ticks, want 0", n)
	}

	// The stub_end arrives before the skel_end it follows: parked, so the
	// chain is parsed once when quiescent, not again until it changes.
	a.Append(recs[3])
	clock.Advance(200 * time.Millisecond)
	for i := 0; i < 20; i++ {
		if n := a.Tick(); n != 0 {
			t.Fatalf("tick %d evicted a chain missing its skel_end", i)
		}
		clock.Advance(50 * time.Millisecond)
	}
	if n := judged(t, a); n != 1 {
		t.Fatalf("chain with a parked record judged %d times over 20 ticks, want 1", n)
	}

	// The missing record unparks the rest and closes the chain: evicted on
	// its tally, with no further parse.
	a.Append(recs[2])
	if a.Tick() != 0 {
		t.Fatal("chain evicted before it went quiescent again")
	}
	clock.Advance(200 * time.Millisecond)
	if n := a.Tick(); n != 1 {
		t.Fatalf("completed chain not evicted (%d)", n)
	}
	if n := judged(t, a); n != 1 {
		t.Fatalf("judged %d times, want 1", n)
	}
	if comps, _ := a.Feed(0, 0); len(comps) != 1 || comps[0].Reason != "complete" || comps[0].Broken {
		t.Fatalf("completions = %+v", comps)
	}
	if store.Len() != 4 {
		t.Fatalf("store holds %d records, want 4", store.Len())
	}
	checkLedger(t, a)
}

// An unchanged chain with a parked record is skipped only until StaleAfter:
// then it is judged regardless and leaves as broken. A hung call with
// nothing parked leaves then too, unparsed.
func TestSkippedChainStillGoesStale(t *testing.T) {
	clock := newFakeClock()
	a, _ := newAssembler(t, clock, nil)
	p, sink := newProbes(t, 4)
	op := probe.OpID{Component: "c", Interface: "I", Operation: "hang", Object: "o"}
	ctx := p.StubStart(op, false)
	p.SkelEnd(p.SkelStart(op, ctx.Wire, false))
	recs := sink.Snapshot()
	p.Tunnel().Clear()
	p.StubStart(op, false)
	hung := sink.Snapshot()[3]
	a.AppendBatch([]probe.Record{recs[0], recs[2], hung}) // skel_start lost
	clock.Advance(time.Second)
	a.Tick()
	a.Tick()
	if n := judged(t, a); n != 1 {
		t.Fatalf("judged %d times before StaleAfter, want 1", n)
	}
	clock.Advance(10 * time.Second)
	if n := a.Tick(); n != 2 {
		t.Fatalf("stale chains not evicted (%d)", n)
	}
	comps, _ := a.Feed(0, 0)
	for _, c := range comps {
		if c.Reason != "stale" || !c.Broken || c.Roots != 1 {
			t.Fatalf("completion = %+v", c)
		}
	}
	if n := judged(t, a); n != 2 {
		t.Fatalf("judged %d times, want 2", n)
	}
}

// Records that arrive out of sequence are put in order before the parse:
// a shuffled complete chain judges clean.
func TestOutOfOrderArrivalIsSorted(t *testing.T) {
	clock := newFakeClock()
	a, _ := newAssembler(t, clock, nil)
	p, sink := newProbes(t, 5)
	oneCall(p, probe.OpID{Component: "c", Interface: "I", Operation: "m", Object: "o"})
	recs := sink.Snapshot()
	a.AppendBatch([]probe.Record{recs[3], recs[0], recs[2], recs[1]})
	clock.Advance(time.Second)
	if n := a.Tick(); n != 1 {
		t.Fatalf("shuffled complete chain not evicted (%d)", n)
	}
	if comps, _ := a.Feed(0, 0); comps[0].Reason != "complete" || comps[0].Broken || comps[0].Anomalous {
		t.Fatalf("completion = %+v", comps[0])
	}
	checkLedger(t, a)
}

func TestTailPolicyDiscardsNormalChains(t *testing.T) {
	clock := newFakeClock()
	a, store := newAssembler(t, clock, func(c *Config) {
		c.Tail = &sampling.TailPolicy{NormalRate: 0}
	})
	p, sink := newProbes(t, 3)
	op := probe.OpID{Component: "c", Interface: "I", Operation: "ok", Object: "o"}
	oneCall(p, op)
	feed(a, sink.Snapshot())
	clock.Advance(time.Second)
	if n := a.Tick(); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if store.Len() != 0 {
		t.Fatalf("discarded chain reached the store (%d records)", store.Len())
	}
	led := checkLedger(t, a)
	if led.Discarded != 4 {
		t.Fatalf("ledger = %+v, want Discarded 4", led)
	}
	comps, _ := a.Feed(0, 0)
	if c := comps[0]; c.Persisted || c.Reason != "complete" {
		t.Fatalf("completion = %+v", c)
	}

	// A straggler for the discarded chain is swallowed and counted.
	chain := comps[0].Chain
	a.Append(probe.Record{Kind: probe.KindEvent, Chain: chain, Seq: 99})
	led = checkLedger(t, a)
	if led.Discarded != 5 {
		t.Fatalf("straggler not discarded: %+v", led)
	}
}

// TestSlowChainSurvivesTailDiscard: the tail policy always keeps slow
// chains, so even NormalRate 0 persists a chain over the threshold.
func TestSlowChainSurvivesTailDiscard(t *testing.T) {
	clock := newFakeClock()
	a, store := newAssembler(t, clock, func(c *Config) {
		c.Tail = &sampling.TailPolicy{NormalRate: 0}
		c.SlowThreshold = 1 * time.Nanosecond // everything is slow
	})
	p, sink := newProbes(t, 4)
	op := probe.OpID{Component: "c", Interface: "I", Operation: "slowop", Object: "o"}
	oneCall(p, op)
	feed(a, sink.Snapshot())
	clock.Advance(time.Second)
	a.Tick()
	comps, _ := a.Feed(0, 0)
	if c := comps[0]; !c.Slow || !c.Persisted {
		t.Fatalf("completion = %+v", c)
	}
	if store.Len() != 4 {
		t.Fatalf("slow chain not persisted: %d records", store.Len())
	}
	checkLedger(t, a)
}

func TestStragglerToPersistedChainReachesStore(t *testing.T) {
	clock := newFakeClock()
	a, store := newAssembler(t, clock, nil)
	p, sink := newProbes(t, 5)
	op := probe.OpID{Component: "c", Interface: "I", Operation: "sib", Object: "o"}
	oneCall(p, op)
	recs := sink.Snapshot()
	feed(a, recs)
	clock.Advance(time.Second)
	a.Tick()
	if store.Len() != 4 {
		t.Fatalf("store holds %d, want 4", store.Len())
	}

	// A sibling root on the same chain arrives after eviction: it must
	// still reach the store on the next Tick.
	sink.Reset()
	p.Tunnel().Store(ftlOf(recs[len(recs)-1]))
	oneCall(p, op)
	feed(a, sink.Snapshot())
	a.Tick()
	if store.Len() != 8 {
		t.Fatalf("straggler records missing: store holds %d, want 8", store.Len())
	}
	led := checkLedger(t, a)
	if led.Persisted != 8 {
		t.Fatalf("ledger = %+v", led)
	}
}

func TestFlushOpenDrainsEverything(t *testing.T) {
	clock := newFakeClock()
	a, store := newAssembler(t, clock, nil)
	p, sink := newProbes(t, 7)
	op := probe.OpID{Component: "c", Interface: "I", Operation: "drain", Object: "o"}
	oneCall(p, op) // complete
	ctx := p.StubStart(op, false)
	_ = ctx // incomplete: stub_start only
	feed(a, sink.Snapshot())

	if n := a.FlushOpen(); n != 2 {
		t.Fatalf("FlushOpen evicted %d, want 2", n)
	}
	if a.OpenChains() != 0 {
		t.Fatal("chains left open after FlushOpen")
	}
	if store.Len() != 5 {
		t.Fatalf("store holds %d, want 5", store.Len())
	}
	comps, _ := a.Feed(0, 0)
	reasons := map[string]int{}
	for _, c := range comps {
		reasons[c.Reason]++
	}
	if reasons["complete"] != 1 || reasons["flush"] != 1 {
		t.Fatalf("reasons = %v", reasons)
	}
	checkLedger(t, a)
}

func TestFeedCursorAndRingWrap(t *testing.T) {
	clock := newFakeClock()
	a, _ := newAssembler(t, clock, nil)
	p, sink := newProbes(t, 8)
	op := probe.OpID{Component: "c", Interface: "I", Operation: "f", Object: "o"}
	const calls = feedSize + 2
	for i := 0; i < calls; i++ {
		oneCall(p, op)
	}
	feed(a, sink.Snapshot())
	clock.Advance(time.Second)
	a.Tick()

	comps, newest := a.Feed(0, 0)
	if newest != calls {
		t.Fatalf("newest = %d, want %d", newest, calls)
	}
	// The ring wrapped: only the last feedSize ids are retained.
	if len(comps) != feedSize || comps[0].ID != 3 || comps[feedSize-1].ID != calls {
		t.Fatalf("feed after wrap: %d entries, ids %d..%d", len(comps), comps[0].ID, comps[len(comps)-1].ID)
	}
	// Cursor-based tailing: nothing new at the cursor.
	if more, n2 := a.Feed(newest, 0); len(more) != 0 || n2 != calls {
		t.Fatalf("Feed(newest) = %v, %d", more, n2)
	}
	// Partial reads honor max.
	part, _ := a.Feed(calls-4, 2)
	if len(part) != 2 || part[0].ID != calls-1 {
		t.Fatalf("Feed(%d, max=2) = %+v", calls-4, part)
	}
	// ids are strictly increasing in feed order.
	for i := 1; i < len(comps); i++ {
		if comps[i].ID != comps[i-1].ID+1 {
			t.Fatalf("non-monotonic feed ids: %+v", comps)
		}
	}
}

// TestStreamingEquivalence is the package-level half of the equivalence
// suite: a workload streamed through the assembler record by record,
// with ticks interleaved, must leave the store characterizing
// byte-identically to batch reconstruction over the same records.
func TestStreamingEquivalence(t *testing.T) {
	p, sink := newProbes(t, 9)
	ops := []probe.OpID{
		{Component: "c", Interface: "A", Operation: "x", Object: "o"},
		{Component: "c", Interface: "B", Operation: "y", Object: "o"},
	}
	for i := 0; i < 10; i++ {
		op := ops[i%len(ops)]
		ctx := p.StubStart(op, false)
		// Nested child call inside the body.
		inner := p.SkelStart(op, ctx.Wire, false)
		child := ops[(i+1)%len(ops)]
		cctx := p.StubStart(child, false)
		sctx := p.SkelStart(child, cctx.Wire, false)
		p.StubEnd(cctx, p.SkelEnd(sctx))
		p.StubEnd(ctx, p.SkelEnd(inner))
		p.Tunnel().Clear()
	}
	// A oneway fork too: parent + callee-side child chain.
	op := ops[0]
	octx := p.StubStart(op, true)
	p.StubEnd(octx, octx.Wire)
	sctx := p.SkelStart(op, octx.Wire, true)
	p.SkelEnd(sctx)
	p.Tunnel().Clear()
	records := sink.Snapshot()

	clock := newFakeClock()
	a, store := newAssembler(t, clock, nil)
	for i, r := range records {
		a.Append(r)
		if i%7 == 0 {
			clock.Advance(20 * time.Millisecond)
			a.Tick()
		}
	}
	clock.Advance(time.Second)
	a.Tick()
	a.FlushOpen()
	led := checkLedger(t, a)
	if led.Buffered != 0 || led.Persisted != uint64(len(records)) {
		t.Fatalf("ledger = %+v, want all %d records persisted", led, len(records))
	}

	batch := logdb.NewStore()
	batch.Insert(records...)
	want := characterize(t, analysis.ReconstructParallel(batch, 4))
	got := characterize(t, analysis.ReconstructParallel(store, 4))
	if got != want {
		t.Fatal("streaming store characterization diverges from batch")
	}
}

// characterize matches the repo's top-level equivalence helper: the
// byte-exact DSCG text + CCSG XML rendering.
func characterize(t *testing.T, g *analysis.DSCG) string {
	t.Helper()
	g.ComputeLatency()
	g.ComputeCPU()
	var buf bytes.Buffer
	if err := render.DSCGText(&buf, g, -1, 0); err != nil {
		t.Fatal(err)
	}
	if err := render.CCSGXML(&buf, analysis.BuildCCSG(g)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestWriteMetrics(t *testing.T) {
	clock := newFakeClock()
	a, _ := newAssembler(t, clock, nil)
	p, sink := newProbes(t, 10)
	oneCall(p, probe.OpID{Component: "c", Interface: "I", Operation: "m", Object: "o"})
	feed(a, sink.Snapshot())
	var sb strings.Builder
	a.WriteMetrics(&sb)
	for _, want := range []string{
		"causeway_assembler_open_chains 1",
		"causeway_assembler_records_appended_total 4",
		"causeway_assembler_records_buffered 4",
		"causeway_assembler_chains_completed_total 0",
		"causeway_assembler_chains_judged_total 0",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, sb.String())
		}
	}
}

func TestNewRejectsNilStore(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil Store")
	}
}

// ftlOf rebuilds the caller-side FTL a record left behind, for
// continuing a chain in tests.
func ftlOf(r probe.Record) ftl.FTL {
	return ftl.FTL{Chain: r.Chain, Seq: r.Seq}
}
