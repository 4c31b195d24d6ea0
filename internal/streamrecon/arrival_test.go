package streamrecon

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"causeway/internal/analysis"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/telemetry"
	"causeway/internal/topology"
)

// evictions reads causeway_assembler_evictions_total{by=...} off
// WriteMetrics.
func evictions(t *testing.T, a *Assembler, by string) int {
	t.Helper()
	return series(t, a, `causeway_assembler_evictions_total{by="`+by+`"}`)
}

// withChain returns recs with each record's chain id marked i.
func withChain(recs []probe.Record, i int) []probe.Record {
	out := slices.Clone(recs)
	for j := range out {
		out[j].Chain[0], out[j].Chain[1], out[j].Chain[2] = 0xa7, byte(i>>8), byte(i)
	}
	return out
}

// A complete chain leaves at the first arrival after its quiescence ends,
// with no Tick: it reaches the store, and OnComplete fires, inside that
// AppendFrame. An arrival a nanosecond sooner leaves it held. What no
// arrival evicts, a Tick does.
func TestChainLeavesAtFirstArrivalAfterQuiescence(t *testing.T) {
	clock := newFakeClock()
	store := &resolvingStore{}
	inDoor := false
	var fired []Completion
	a, _ := newAssembler(t, clock, func(c *Config) {
		c.Store = store
		c.OnComplete = func(comp Completion) {
			if !inDoor {
				t.Error("OnComplete fired outside the frame door")
			}
			fired = append(fired, comp)
		}
	})
	door := func(recs []probe.Record) {
		inDoor = true
		appendFrames(t, a, recs)
		inDoor = false
	}
	base := nestedChain(t, 31, 1)
	first, second, third := withChain(base, 1), withChain(base, 2), withChain(base, 3)

	door(first)
	clock.Advance(a.Quiescence() - 1)
	door(second)
	if len(fired) != 0 || len(store.recs) != 0 {
		t.Fatalf("a chain left a nanosecond before its quiescence ended: %d completions, %d records stored", len(fired), len(store.recs))
	}
	clock.Advance(1)
	door(third)
	if len(fired) != 1 || fired[0].Chain != first[0].Chain || fired[0].Reason != "complete" || !fired[0].When.Equal(clock.Now()) {
		t.Fatalf("completions inside the door: %+v, want the first chain's, stamped now", fired)
	}
	if !slices.Equal(byChain(store.recs)[first[0].Chain], shipped(t, first)) || len(store.recs) != len(first) {
		t.Fatalf("the store holds %d records, want the first chain's %d", len(store.recs), len(first))
	}
	if n := a.Tick(); n != 0 {
		t.Fatalf("the Tick after evicted %d chains, want 0: the second is not quiet yet", n)
	}
	if by, tick := evictions(t, a, "arrival"), evictions(t, a, "tick"); by != 1 || tick != 0 {
		t.Fatalf("evictions by arrival %d, by tick %d; want 1 and 0", by, tick)
	}

	// Nothing arrives: the Tick takes what went quiet.
	clock.Advance(a.Quiescence())
	inDoor = true // OnComplete runs inside the Tick
	if n := a.Tick(); n != 2 {
		t.Fatalf("an idle table's Tick evicted %d chains, want 2", n)
	}
	if by, tick := evictions(t, a, "arrival"), evictions(t, a, "tick"); by != 1 || tick != 2 {
		t.Fatalf("evictions by arrival %d, by tick %d; want 1 and 2", by, tick)
	}
	checkLedger(t, a)
}

// Quiet chains a parse found incomplete are judged once: the frames that
// arrive after them evict the chains that went quiet behind them and do
// not look at the waiting ones again. They leave at StaleAfter.
func TestQuietIncompleteChainsNotJudgedAgain(t *testing.T) {
	const waiting, frames = 1000, 100
	clock := newFakeClock()
	a, _ := newAssembler(t, clock, func(c *Config) {
		c.Store = &nullCompactStore{}
		c.StaleAfter = time.Minute
	})
	base := nestedChain(t, 32, 0)
	lost := []probe.Record{base[0], base[2], base[3]} // skel_start lost: the rest park
	var recs []probe.Record
	for i := 0; i < waiting; i++ {
		recs = append(recs, withChain(lost, i)...)
	}
	appendFrames(t, a, recs)
	clock.Advance(a.Quiescence())
	for i := 0; i < frames; i++ {
		appendFrames(t, a, withChain(base, waiting+i))
		if i == 0 {
			if n := judged(t, a); n != waiting {
				t.Fatalf("the first frame after quiescence judged %d chains, want %d", n, waiting)
			}
		}
		clock.Advance(a.Quiescence())
	}
	if n := judged(t, a); n != waiting {
		t.Fatalf("%d later frames judged the waiting chains again: %d judgements, want %d", frames, n, waiting)
	}
	if by := evictions(t, a, "arrival"); by != frames-1 {
		t.Fatalf("%d chains evicted by arrival, want the %d complete chains before the last", by, frames-1)
	}
	if open := a.OpenChains(); open != waiting+1 {
		t.Fatalf("%d chains held, want the %d waiting and the last complete one", open, waiting)
	}
	if n := a.Tick(); n != 1 || judged(t, a) != waiting {
		t.Fatalf("the Tick evicted %d chains and left %d judgements, want 1 and %d", n, judged(t, a), waiting)
	}
	clock.Advance(time.Minute)
	if n := a.Tick(); n != waiting {
		t.Fatalf("%d waiting chains went stale, want %d", n, waiting)
	}
	checkLedger(t, a)
}

// A chain that holds stragglers of an evicted chain is released at the
// first Tick that finds nothing of it open, as it always was: an arrival
// pass, however long the stragglers have been quiet, leaves it be. One
// whose invocation never closes is released at the Tick after StaleAfter.
func TestStragglersReleasedAtTheTick(t *testing.T) {
	clock := newFakeClock()
	a, store := newAssembler(t, clock, nil) // Quiescence 100ms, StaleAfter 10s
	p, sink := newProbes(t, 33)
	op := probe.OpID{Component: "c", Interface: "I", Operation: "sib", Object: "o"}
	oneCall(p, op)
	recs := sink.Snapshot()
	feed(a, recs)
	clock.Advance(time.Second)
	if n := a.Tick(); n != 1 {
		t.Fatalf("evicted %d chains, want 1", n)
	}

	// A sibling root arrives, its call still open.
	sink.Reset()
	p.Tunnel().Store(ftlOf(recs[len(recs)-1]))
	oneCall(p, op)
	sibling := sink.Snapshot()
	feed(a, sibling[:2])
	other := nestedChain(t, 34, 0)
	clock.Advance(time.Second)
	a.AppendBatch(other) // an arrival pass: nothing of the stragglers is due
	if a.Tick(); store.Len() != 4 {
		t.Fatalf("open stragglers released: store holds %d records, want 4", store.Len())
	}
	feed(a, sibling[2:]) // closed now
	clock.Advance(time.Second)
	a.AppendBatch(withChain(other, 1)) // evicts other, not the stragglers
	if want := 4 + len(other); store.Len() != want {
		t.Fatalf("store holds %d records after the arrival, want %d: the stragglers wait for the Tick", store.Len(), want)
	}
	a.Tick()
	if want := 8 + len(other); store.Len() != want {
		t.Fatalf("store holds %d records after the Tick, want %d", store.Len(), want)
	}

	// Stragglers whose call never closes leave at StaleAfter.
	sink.Reset()
	p.Tunnel().Store(ftlOf(sibling[len(sibling)-1]))
	ctx := p.StubStart(op, false)
	_ = p.SkelStart(op, ctx.Wire, false)
	feed(a, sink.Snapshot())
	clock.Advance(9 * time.Second)
	if a.Tick(); store.Len() != 8+2*len(other) { // the second other chain leaves
		t.Fatalf("open stragglers released before StaleAfter: store holds %d", store.Len())
	}
	clock.Advance(time.Second)
	if a.Tick(); store.Len() != 10+2*len(other) {
		t.Fatalf("stale stragglers not released: store holds %d", store.Len())
	}
	if led := checkLedger(t, a); led.Buffered != 0 {
		t.Fatalf("ledger = %+v", led)
	}
}

// Three connections ship frames while a Tick loop runs, so arrival passes
// meet each other and the Ticks at evictMu and skip rather than wait: the
// ledger balances after every Tick, chains leave by arrival, and the store
// ends up holding what a reference store given every record holds.
func TestArrivalPassesBesideTickLoop(t *testing.T) {
	const conns, chains = 3, 150
	store := logdb.NewStore()
	a, err := New(Config{Store: store, Quiescence: 2 * time.Millisecond, StaleAfter: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := telemetry.Listen("127.0.0.1:0", telemetry.ServerConfig{Sinks: []probe.Sink{a}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := nestedChain(t, 35, 2)
	var sent []probe.Record
	var producing sync.WaitGroup
	for c := 0; c < conns; c++ {
		sh, err := telemetry.NewShipper(telemetry.ShipperConfig{
			Addr: srv.Addr(), Process: topology.Process{ID: fmt.Sprintf("p%d", c)}, FlushInterval: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		var recs []probe.Record
		for i := 0; i < chains; i++ {
			recs = append(recs, withChain(base, c*chains+i)...)
		}
		sent = append(sent, recs...)
		producing.Add(1)
		go func() {
			defer producing.Done()
			defer sh.Close()
			for i, r := range recs {
				sh.Append(r)
				if i%(4*len(base)) == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	var ticking atomic.Bool
	ticking.Store(true)
	defer ticking.Store(false) // also when the test fails before the end
	ticks := make(chan int, 1)
	go func() {
		n := 0
		for ; ticking.Load(); n++ {
			a.Tick()
			if led := a.Ledger(); led.Appended != led.Persisted+led.Discarded+led.Buffered {
				t.Errorf("ledger does not balance after a Tick: %+v", led)
			}
			time.Sleep(3 * time.Millisecond)
		}
		ticks <- n
	}()
	producing.Wait()
	waitUntil(t, func() bool { return a.Ledger().Persisted == uint64(len(sent)) }, "every record persisted")
	ticking.Store(false)
	t.Logf("%d Ticks; evictions by arrival %d, by tick %d", <-ticks, evictions(t, a, "arrival"), evictions(t, a, "tick"))
	if by := evictions(t, a, "arrival"); by == 0 {
		t.Fatal("no chain left by arrival")
	}
	if n := evictions(t, a, "arrival") + evictions(t, a, "tick"); n != conns*chains {
		t.Fatalf("%d evictions counted, want %d", n, conns*chains)
	}
	checkLedger(t, a)
	ref := logdb.NewStore()
	ref.Insert(shipped(t, sent)...)
	if characterize(t, analysis.ReconstructParallel(store, 2)) != characterize(t, analysis.ReconstructParallel(ref, 2)) {
		t.Fatal("the store characterizes differently from the reference given every record")
	}
}

// A rotation sizes the new generation of cursors from the one it replaces,
// so the chains that leave in the next StaleAfter, as many as left in the
// last, are remembered without the map growing.
func TestUnholdAfterRotationAllocFree(t *testing.T) {
	const n = 4096
	clock := newFakeClock()
	a, _ := newAssembler(t, clock, func(c *Config) { c.Store = &nullStore{} }) // StaleAfter 10s
	base := nestedChain(t, 36, 0)
	for i := 0; i < n; i++ {
		a.AppendBatch(withChain(base, i))
	}
	clock.Advance(time.Second)
	if got := a.Tick(); got != n {
		t.Fatalf("evicted %d chains, want %d", got, n)
	}
	clock.Advance(10 * time.Second)
	a.Tick()
	if a.Generation() != 1 || len(a.older) != n {
		t.Fatalf("generation %d with %d cursors in the older, want 1 and %d", a.Generation(), len(a.older), n)
	}
	a.mu.Lock()
	held := make([]*chain, n)
	for i := range held {
		held[i] = a.hold(withChain(base, n+i)[0].Chain, cursor{}, 0)
	}
	a.mu.Unlock()
	half := 0 // AllocsPerRun lets one half go unmeasured, then measures the other
	allocs := testing.AllocsPerRun(1, func() {
		a.mu.Lock()
		for _, c := range held[half*n/2 : (half+1)*n/2] {
			a.unhold(c)
		}
		a.mu.Unlock()
		half++
	})
	if allocs != 0 || len(a.cursors) != n {
		t.Fatalf("%d unholds after a rotation cost %v allocations and left %d cursors, want 0 and %d", n/2, allocs, len(a.cursors), n)
	}
}
