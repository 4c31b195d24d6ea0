package streamrecon

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"causeway/internal/probe"
	"causeway/internal/uuid"
)

// orderStore keeps what it is handed, by value, in the order handed.
type orderStore struct{ recs []probe.Record }

func (s *orderStore) Insert(recs ...probe.Record) { s.recs = append(s.recs, recs...) }

// nullStore takes records and keeps nothing.
type nullStore struct{ n int }

func (s *nullStore) Insert(recs ...probe.Record) { s.n += len(recs) }

// nestedChain returns the records of one chain: a call with children child
// calls inside it, 4+4*children records in seq order.
func nestedChain(t *testing.T, seed uint64, children int) []probe.Record {
	t.Helper()
	p, sink := newProbes(t, seed)
	f := probe.OpID{Component: "c", Interface: "I", Operation: "f", Object: "o"}
	g := probe.OpID{Component: "c", Interface: "J", Operation: "g", Object: "o"}
	ctx := p.StubStart(f, false)
	sctx := p.SkelStart(f, ctx.Wire, false)
	for i := 0; i < children; i++ {
		c := p.StubStart(g, false)
		p.StubEnd(c, p.SkelEnd(p.SkelStart(g, c.Wire, false)))
	}
	p.StubEnd(ctx, p.SkelEnd(sctx))
	p.Tunnel().Clear()
	recs := sink.Snapshot()
	if len(recs) != 4+4*children {
		t.Fatalf("generated %d records, want %d", len(recs), 4+4*children)
	}
	return recs
}

func bySeqStable(recs []probe.Record) []probe.Record {
	out := slices.Clone(recs)
	slices.SortStableFunc(out, bySeq)
	return out
}

// A chain that spans many chunks and arrives shuffled reaches the store in
// seq order, equal seqs in arrival order — what a stable sort of the
// arrivals gives — and still parses clean.
func TestShuffledChainAcrossChunksReachesStoreInSeqOrder(t *testing.T) {
	clock := newFakeClock()
	store := &orderStore{}
	a, _ := newAssembler(t, clock, func(c *Config) { c.Store = store })
	recs := nestedChain(t, 3, 24) // 100 records, several chunks
	shuffled := slices.Clone(recs)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	a.AppendBatch(shuffled)
	clock.Advance(time.Second)
	if n := a.Tick(); n != 1 {
		t.Fatalf("evicted %d chains, want 1", n)
	}
	if comps, _ := a.Feed(0, 0); comps[0].Reason != "complete" || comps[0].Nodes != 25 {
		t.Fatalf("completion = %+v", comps[0])
	}
	if !reflect.DeepEqual(store.recs, recs) {
		t.Fatal("store did not receive the chain in seq order")
	}

	// Ties: every seq twice, told apart by Thread; the drain forces them out.
	store.recs = nil
	var tied []probe.Record
	for i, r := range shuffled[:40] {
		r.Chain, r.Seq, r.Thread = uuid.UUID{1: 9}, uint64(20-i/2), uint64(i)
		tied = append(tied, r)
	}
	a.AppendBatch(tied)
	a.FlushOpen()
	if !reflect.DeepEqual(store.recs, bySeqStable(tied)) {
		t.Fatal("equal seqs did not keep their arrival order")
	}
	checkLedger(t, a)
}

// A judgement sorts what it judged. A record arriving afterwards with a seq
// below the sorted tail's is still seen as out of order and sorted in.
func TestArrivalBelowSortedTailIsSortedIn(t *testing.T) {
	clock := newFakeClock()
	store := &orderStore{}
	a, _ := newAssembler(t, clock, func(c *Config) { c.Store = store })
	recs := nestedChain(t, 4, 0)
	a.AppendBatch([]probe.Record{recs[0], recs[3], recs[1]}) // the newest arrival is not the highest seq
	clock.Advance(time.Second)
	if n := a.Tick(); n != 0 {
		t.Fatalf("a chain missing a record evicted (%d)", n)
	}
	a.Append(recs[2])
	clock.Advance(time.Second)
	if n := a.Tick(); n != 1 {
		t.Fatalf("completed chain not evicted (%d)", n)
	}
	if comps, _ := a.Feed(0, 0); comps[0].Reason != "complete" || comps[0].Broken || comps[0].Anomalous {
		t.Fatalf("completion = %+v", comps[0])
	}
	if !reflect.DeepEqual(store.recs, recs) {
		t.Fatal("store did not receive the chain in seq order")
	}
}

// Once the free list has been primed, buffering, judging and evicting a
// chain allocates a handful of small things (its table entry, its chunk
// list, the tick's eviction list) whatever its length: no record memory, no
// parse tree.
func TestAssemblerSteadyStateAllocs(t *testing.T) {
	const warm, runs, ceiling = 8, 20, 12
	for _, children := range []int{24, 99} { // 100 and 400 records
		clock := newFakeClock()
		a, _ := newAssembler(t, clock, func(c *Config) { c.Store = &nullStore{} })
		base := nestedChain(t, 7, children)
		chains := make([][]probe.Record, warm+runs+1)
		for i := range chains {
			chains[i] = slices.Clone(base)
			for j := range chains[i] {
				chains[i][j].Chain[3] = byte(i + 1)
			}
		}
		next := 0
		cycle := func() {
			a.AppendBatch(chains[next])
			next++
			clock.Advance(time.Second)
			if n := a.Tick(); n != 1 {
				t.Fatalf("evicted %d chains, want 1", n)
			}
		}
		for i := 0; i < warm; i++ {
			cycle()
		}
		if got := testing.AllocsPerRun(runs, cycle); got > ceiling {
			t.Errorf("a %d-record chain costs %v allocations from append to eviction, want <= %d", len(base), got, ceiling)
		}
		checkLedger(t, a)
	}
}

// After a burst far larger than the free list drains, the list holds no more
// than its bound, and no chunk in it remembers the chain that used it.
func TestAssemblerFreeListBounded(t *testing.T) {
	clock := newFakeClock()
	a, _ := newAssembler(t, clock, func(c *Config) { c.Store = &nullStore{} })
	base := nestedChain(t, 8, 24)
	perChain := (len(base) + chunkRecs - 1) / chunkRecs
	burst := 2 * maxFreeChunks / perChain
	for i := 0; i < burst; i++ {
		recs := slices.Clone(base)
		for j := range recs {
			recs[j].Chain[2], recs[j].Chain[3] = byte(i>>8), byte(i)
			recs[j].Semantics = "in: a string only this chain has"
		}
		a.AppendBatch(recs)
	}
	clock.Advance(time.Second)
	if n := a.Tick(); n != burst {
		t.Fatalf("evicted %d chains, want %d", n, burst)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.free) != maxFreeChunks {
		t.Fatalf("free list holds %d chunks after %d came back, bound %d", len(a.free), burst*perChain, maxFreeChunks)
	}
	for i, c := range a.free {
		if *c != (chunk{}) {
			t.Fatalf("free chunk %d still holds a record", i)
		}
	}
}

// Records arriving in order never touch the early-arrival list; it exists
// only once something does arrive early, and drains when the gap fills.
func TestPendingAllocatedOnlyForEarlyArrivals(t *testing.T) {
	recs := nestedChain(t, 9, 1)

	// held is the one chain the monitor holds while its call is open.
	held := func(m *Assembler) *chain {
		if len(m.chains) != 1 {
			t.Fatalf("monitor holds %d chains mid-call, want 1", len(m.chains))
		}
		for _, c := range m.chains {
			return c
		}
		return nil
	}
	var got int
	m := NewMonitor(Config{OnRoot: func(RootEvent) { got++ }})
	m.AppendBatch(recs[:len(recs)-1])
	if held(m).pending != nil {
		t.Fatal("in-order records allocated the early-arrival list")
	}
	m.Append(recs[len(recs)-1])
	if got != 1 {
		t.Fatalf("in-order records delivered %d roots, want 1", got)
	}

	got = 0
	m = NewMonitor(Config{OnRoot: func(RootEvent) { got++ }})
	swapped := slices.Clone(recs)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	m.AppendBatch(swapped[:len(recs)-1])
	if c := held(m); c.pending == nil || len(c.pending) != 0 {
		t.Fatalf("early arrival not parked and drained: pending=%v", c.pending)
	}
	m.Append(swapped[len(recs)-1])
	if got != 1 {
		t.Fatalf("records with an early arrival delivered %d roots, want 1", got)
	}
}

// The table forgets a chain between StaleAfter and twice that after it left,
// whatever became of it: under a steady stream of short chains its size
// stays bounded by what arrives in about two StaleAfters, the free list
// stays within its bound, and the ledger balances.
func TestTableForgetsIdleChains(t *testing.T) {
	const chains, perStep = 100_000, 100
	clock := newFakeClock()
	a, _ := newAssembler(t, clock, func(c *Config) { c.Store = &nullStore{} }) // Quiescence 100ms, StaleAfter 10s
	base := nestedChain(t, 10, 0)
	recs := slices.Clone(base)
	most := 0
	for i := 0; i < chains; i++ {
		for j := range recs {
			recs[j].Chain[0], recs[j].Chain[1], recs[j].Chain[2] = byte(i>>16), byte(i>>8), byte(i)
		}
		a.AppendBatch(recs)
		if i%perStep == perStep-1 {
			clock.Advance(100 * time.Millisecond)
			a.Tick()
			most = max(most, len(a.chains)+len(a.cursors)+len(a.older))
		}
	}
	// 100 chains per 100ms step; forgotten between StaleAfter and 2x it.
	if bound := 21 * 1000; most > bound {
		t.Fatalf("table grew to %d chains under a steady stream, want <= %d", most, bound)
	}
	for i := 0; i < 2; i++ {
		clock.Advance(11 * time.Second)
		a.Tick()
	}
	if n := len(a.chains) + len(a.cursors) + len(a.older); n != 0 {
		t.Fatalf("%d chains remembered 22s after the last record, want 0", n)
	}
	if led := checkLedger(t, a); led.Persisted != chains*uint64(len(base)) || led.Buffered != 0 {
		t.Fatalf("ledger = %+v", led)
	}
	if len(a.free) > maxFreeChunks {
		t.Fatalf("free list holds %d chunks", len(a.free))
	}

	// A straggler for a forgotten chain starts it afresh: parked behind a
	// cursor at zero, judged, and evicted a second time — as stale, since
	// a lone stub_end never parses clean.
	straggler := base[len(base)-1]
	straggler.Chain = recs[0].Chain
	a.Append(straggler)
	clock.Advance(11 * time.Second)
	if n := a.Tick(); n != 1 {
		t.Fatalf("straggler of a forgotten chain evicted %d chains, want 1", n)
	}
	if n := judged(t, a); n != 1 {
		t.Fatalf("straggler judged %d times, want 1", n)
	}
	checkLedger(t, a)
}

// A client thread keeps its chain across top-level calls. A monitor that
// forgot the chain during a pause, or while one call outlasted StaleAfter,
// picks it up again: every later root reaches OnRoot — parked behind the
// forgotten cursor at most until a Tick finds the chain quiescent and
// parsing clean, or held StaleAfter — and the table keeps nothing of the
// chain between calls.
func TestMonitorResumesForgottenChain(t *testing.T) {
	const stale = 9 * time.Second
	base := nestedChain(t, 11, 0)
	call := func(k int) []probe.Record { // the chain's k-th call, seqs after the (k-1)-th
		recs := slices.Clone(base)
		for i := range recs {
			recs[i].Seq += uint64(k * len(base))
		}
		return recs
	}
	for _, tc := range []struct {
		name  string
		first []probe.Record // what arrives before the pause
		rest  []probe.Record // what arrives after it, ahead of the next call
		late  int            // calls after the pause whose roots may wait for StaleAfter
	}{
		{"pause", call(0), nil, 0},
		{"long call", call(0)[:2], call(0)[2:], 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := newFakeClock()
			roots := 0
			m := NewMonitor(Config{
				Clock: clock.Now, Quiescence: 100 * time.Millisecond, StaleAfter: stale,
				OnRoot: func(RootEvent) { roots++ },
			})
			m.AppendBatch(tc.first)
			for i := 0; i < 3; i++ { // stale, then both generations forgotten
				clock.Advance(stale)
				m.Tick()
			}
			if roots != 1 || len(m.chains)+len(m.cursors)+len(m.older) != 0 {
				t.Fatalf("after the pause: %d roots, %d chains held, %d remembered; want 1, 0, 0",
					roots, len(m.chains), len(m.cursors)+len(m.older))
			}
			m.AppendBatch(tc.rest)
			const calls = 9
			for k := 1; k <= calls; k++ {
				m.AppendBatch(call(k))
				clock.Advance(stale / 3)
				m.Tick()
				if k > tc.late && roots != 1+k {
					t.Fatalf("call %d: %d roots delivered, want %d", k, roots, 1+k)
				}
				if n := m.OpenChains(); n > 1 || n == 1 && k > tc.late {
					t.Fatalf("call %d: %d chains held after a quiescent Tick", k, n)
				}
			}
		})
	}
}
