package streamrecon

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"causeway/internal/metrics"
	"causeway/internal/probe"
	"causeway/internal/uuid"
)

// orderStore keeps what it is handed, by value, in the order handed.
type orderStore struct{ recs []probe.Record }

func (s *orderStore) Insert(recs ...probe.Record) { s.recs = append(s.recs, recs...) }

// nullStore takes records and keeps nothing.
type nullStore struct{ n int }

func (s *nullStore) Insert(recs ...probe.Record) { s.n += len(recs) }

// nullCompactStore is a nullStore with the compact door.
type nullCompactStore struct{ nullStore }

func (s *nullCompactStore) InsertCompacts(cs []probe.Compact, _ *probe.SymbolTable) { s.n += len(cs) }

// nestedChain returns the records of one chain: a call with children child
// calls inside it, 4+4*children records in seq order.
func nestedChain(t testing.TB, seed uint64, children int) []probe.Record {
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

// shipped is recs as a frame carries them — wall times as Unix
// nanoseconds — which is what the table hands its store: it keeps records
// compact and resolves them at eviction.
func shipped(t testing.TB, recs []probe.Record) []probe.Record {
	t.Helper()
	var dec probe.FrameDecoder
	out, err := dec.Decode(probe.EncodeFrame(recs))
	if err != nil {
		t.Fatal(err)
	}
	return slices.Clone(out)
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
	if !reflect.DeepEqual(store.recs, shipped(t, recs)) {
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
	if !reflect.DeepEqual(store.recs, shipped(t, bySeqStable(tied))) {
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
	if !reflect.DeepEqual(store.recs, shipped(t, recs)) {
		t.Fatal("store did not receive the chain in seq order")
	}
}

// serverFirst reorders one call's records (stub_start, skel_start,
// skel_end, stub_end) as a collector receives them: the server's span
// ships before the client's.
func serverFirst(recs []probe.Record) []probe.Record {
	return []probe.Record{recs[1], recs[2], recs[0], recs[3]}
}

// Once the table has been primed, buffering, judging and evicting a chain
// allocates nothing with a store, whatever its length and arrival order:
// the chain, its head and chunks, machine stack, early-arrival list and
// tree nodes are all reused, and so is the eviction list. Without a store
// the table allocates only what the callbacks may keep: the chain's head
// and its tree's nodes. Through the frame door, over a store with the
// compact door, the chain's frame is decoded as the telemetry server
// decodes it, and that costs nothing either. Each door costs the same
// when the next chain's arrival, not a Tick, evicts the chain.
func TestAssemblerSteadyStateAllocs(t *testing.T) {
	const warm, runs = 8, 20
	one := serverFirst(nestedChain(t, 7, 0))
	for _, tc := range []struct {
		name    string
		base    []probe.Record
		monitor bool
		frames  bool
		arrival bool // evicted by the next chain's arrival
		ceiling float64
	}{
		{"4 records server first", one, false, false, false, 0},
		{"100 records", nestedChain(t, 7, 24), false, false, false, 0},
		{"400 records", nestedChain(t, 7, 99), false, false, false, 0},
		{"monitor 4 records server first", one, true, false, false, 2}, // the head, the one node
		{"frames 100 records", nestedChain(t, 7, 24), false, true, false, 0},
		{"by arrival 100 records", nestedChain(t, 7, 24), false, false, true, 0},
		{"by arrival frames 100 records", nestedChain(t, 7, 24), false, true, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := newFakeClock()
			var a *Assembler
			roots := 0
			switch {
			case tc.monitor:
				a = NewMonitor(Config{Clock: clock.Now, Metrics: metrics.NewRegistry(), OnRoot: func(RootEvent) { roots++ }})
			case tc.frames:
				a, _ = newAssembler(t, clock, func(c *Config) { c.Store = &nullCompactStore{} })
			default:
				a, _ = newAssembler(t, clock, func(c *Config) { c.Store = &nullStore{} })
			}
			chains := make([][]probe.Record, warm+runs+1)
			bodies := make([][]byte, len(chains))
			for i := range chains {
				chains[i] = slices.Clone(tc.base)
				for j := range chains[i] {
					chains[i][j].Chain[3] = byte(i + 1)
				}
				bodies[i] = probe.EncodeFrame(chains[i])
			}
			var dec probe.FrameDecoder
			next := 0
			cycle := func() {
				if tc.frames {
					f, err := dec.DecodeFrame(bodies[next])
					if err != nil {
						t.Fatal(err)
					}
					a.AppendFrame(f)
				} else {
					a.AppendBatch(chains[next])
				}
				next++
				clock.Advance(time.Second)
				if tc.arrival {
					if n := a.Completions(); n != uint64(next-1) {
						t.Fatalf("%d chains evicted by the arrival of chain %d, want %d", n, next, next-1)
					}
					return
				}
				if n := a.Tick(); !tc.monitor && n != 1 {
					t.Fatalf("evicted %d chains, want 1", n)
				}
			}
			for i := 0; i < warm; i++ {
				cycle()
			}
			if got := testing.AllocsPerRun(runs, cycle); got > tc.ceiling {
				t.Errorf("a %d-record chain costs %v allocations from append to eviction, want <= %v", len(tc.base), got, tc.ceiling)
			}
			if tc.monitor && roots != warm+runs+1 {
				t.Errorf("%d roots delivered, want %d", roots, warm+runs+1)
			}
			checkLedger(t, a)
		})
	}
}

// After a burst larger than the free lists drains, each holds no more
// than its bound, no chunk in them remembers the chain that used it, and no
// spare chain points at a record.
func TestAssemblerFreeListBounded(t *testing.T) {
	clock := newFakeClock()
	a, _ := newAssembler(t, clock, func(c *Config) { c.Store = &nullStore{} })
	base := nestedChain(t, 8, 4) // 20 records: a head and one full chunk
	burst := max(maxFreeChunks, maxSpareChains) * 5 / 4
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
	if len(a.free) != maxFreeChunks || len(a.heads) != maxFreeChunks || len(a.spare) != maxSpareChains {
		t.Fatalf("free lists hold %d chunks, %d heads and %d chains after %d chains came back, bounds %d, %d, %d",
			len(a.free), len(a.heads), len(a.spare), burst, maxFreeChunks, maxFreeChunks, maxSpareChains)
	}
	for i, c := range a.free {
		if *c != (chunk{}) {
			t.Fatalf("free chunk %d still holds a record", i)
		}
	}
	for i, h := range a.heads {
		if *h != (head{}) {
			t.Fatalf("free head %d still holds a record", i)
		}
	}
	for i, c := range a.spare {
		if c.head != nil || c.n != 0 || slices.ContainsFunc(c.chunks[:cap(c.chunks)], func(k *chunk) bool { return k != nil }) ||
			slices.ContainsFunc(c.pending[:cap(c.pending)], func(r *probe.Compact) bool { return r != nil }) {
			t.Fatalf("spare chain %d still points at records", i)
		}
	}
}

// countingStore keeps every Insert's records as one call.
type countingStore struct{ calls [][]probe.Record }

func (s *countingStore) Insert(recs ...probe.Record) { s.calls = append(s.calls, slices.Clone(recs)) }

// An evicted chain reaches the store in one Insert, in seq order with equal
// seqs in arrival order, whether it arrived in order or not and however
// many chunks it took.
func TestEvictedChainIsOneInsert(t *testing.T) {
	call := nestedChain(t, 12, 0)
	tied := slices.Clone(call) // seqs 2, 1, 2, 1 from four threads
	for i := range tied {
		tied[i].Seq, tied[i].Thread = uint64(2-i%2), uint64(i)
	}
	for _, tc := range []struct {
		name string
		recs []probe.Record
	}{
		{"one call in order", call},
		{"one call server first", serverFirst(call)},
		{"ties in the head", tied},
		{"head and a chunk in order", nestedChain(t, 12, 3)},
		{"head and two chunks in order", nestedChain(t, 12, 6)},
		{"head and two chunks reversed", func() []probe.Record {
			recs := nestedChain(t, 12, 6)
			slices.Reverse(recs)
			return recs
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := newFakeClock()
			store := &countingStore{}
			a, _ := newAssembler(t, clock, func(c *Config) { c.Store = store })
			a.AppendBatch(tc.recs)
			clock.Advance(time.Second)
			if tc.name == "ties in the head" {
				a.FlushOpen() // a tie never parses clean
			} else if n := a.Tick(); n != 1 {
				t.Fatalf("evicted %d chains, want 1", n)
			}
			if len(store.calls) != 1 {
				t.Fatalf("chain of %d records reached the store in %d Insert calls, want 1", len(tc.recs), len(store.calls))
			}
			if !reflect.DeepEqual(store.calls[0], shipped(t, bySeqStable(tc.recs))) {
				t.Fatal("store did not receive the chain in seq order, ties in arrival order")
			}
			checkLedger(t, a)
		})
	}
}

// Links leave for the store at the next Tick a chunk per Insert, in
// arrival order, so a tick's links are never gathered into one buffer; the
// chunks go back to the free list and the next tick's links reuse them.
func TestLinksReachStoreAChunkAtATime(t *testing.T) {
	clock := newFakeClock()
	store := &countingStore{}
	a, _ := newAssembler(t, clock, func(c *Config) { c.Store = store })
	links := make([]probe.Record, 2*chunkRecs+5)
	for i := range links {
		links[i] = probe.Record{Kind: probe.KindLink, Seq: uint64(i + 1)}
		links[i].LinkChild[0], links[i].LinkChild[1] = 1, byte(i)
	}
	for round := 0; round < 2; round++ {
		store.calls = nil
		a.AppendBatch(links)
		a.Tick()
		var got []probe.Record
		for i, call := range store.calls {
			if want := min(chunkRecs, len(links)-i*chunkRecs); len(call) != want {
				t.Fatalf("round %d: Insert %d got %d links, want %d", round, i, len(call), want)
			}
			got = append(got, call...)
		}
		if !reflect.DeepEqual(got, links) {
			t.Fatalf("round %d: the store got %d links in %d Inserts, want the %d appended in order", round, len(got), len(store.calls), len(links))
		}
		a.mu.Lock()
		free := len(a.linkFree)
		a.mu.Unlock()
		if want := (len(links) + chunkRecs - 1) / chunkRecs; free != want {
			t.Fatalf("round %d: %d chunks on the free list, want the link queue's %d", round, free, want)
		}
		checkLedger(t, a)
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

// The table's symbols stay bounded however many new names arrive: chains
// whose every process, interface, operation and object name is new, a
// quarter of a million names in all, leave the table holding one
// generation of at most maxSymbols strings and maxSymbolBytes bytes (plus
// what one chain adds), and the heap grows by less than 8 MB, not the 25 MB
// the names take.
func TestSymbolMemoryBoundedUnderNewNames(t *testing.T) {
	const chains, batch = 60_000, 64
	clock := newFakeClock()
	a, _ := newAssembler(t, clock, func(c *Config) {
		c.Store = &nullStore{}
		c.StaleAfter = time.Second // cursors forgotten too: only symbols could grow
	})
	base := nestedChain(t, 9, 0)
	name := func(kind string, i int) string { return fmt.Sprintf("%s-%08d-%s", kind, i, strings.Repeat("x", 32)) }
	recs := make([]probe.Record, 0, batch*len(base))
	var heap0 uint64
	for i := 0; i < chains; i++ {
		for _, r := range base {
			r.Chain = uuid.UUID{0: 0xfe, 1: byte(i), 2: byte(i >> 8), 3: byte(i >> 16)}
			r.Process, r.Op.Interface = name("process", i), name("interface", i)
			r.Op.Operation, r.Op.Object = name("operation", i), name("object", i)
			recs = append(recs, r)
		}
		if len(recs) < cap(recs) {
			continue
		}
		a.AppendBatch(recs)
		recs = recs[:0]
		clock.Advance(200 * time.Millisecond)
		a.Tick()
		if i+1 == 1024 {
			heap0 = heapInUse()
		}
	}
	if open := a.OpenChains(); open != 0 {
		t.Fatalf("%d chains still open", open)
	}
	a.mu.Lock()
	tab := a.syms.Table(0)
	strs, bytes := tab.Len(), tab.Bytes()
	a.mu.Unlock()
	if perChain := 4 * len(name("interface", 0)); strs > maxSymbols+4 || bytes > maxSymbolBytes+perChain {
		t.Fatalf("the current symbols hold %d strings of %d bytes, bounds %d and %d", strs, bytes, maxSymbols, maxSymbolBytes)
	}
	if grown := int64(heapInUse()) - int64(heap0); grown > 8<<20 {
		t.Fatalf("the heap grew by %d bytes over %d chains of new names", grown, chains-1024)
	}
}

// heapInUse is the live heap after a collection.
func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
