package streamrecon

import (
	"cmp"
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
	slices.SortStableFunc(out, func(x, y probe.Record) int { return cmp.Compare(x.Seq, y.Seq) })
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
