package probe

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"causeway/internal/ftl"
	"causeway/internal/gls"
	"causeway/internal/topology"
	"causeway/internal/uuid"
)

// spanRecorder captures batched appends for assertions.
type spanRecorder struct {
	mu      sync.Mutex
	batches [][]Record
	flat    []Record
}

func (s *spanRecorder) Append(r Record) { s.AppendSpan([]Record{r}) }

func (s *spanRecorder) AppendSpan(recs []Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make([]Record, len(recs))
	copy(cp, recs)
	s.batches = append(s.batches, cp)
	s.flat = append(s.flat, cp...)
}

var _ SpanSink = (*spanRecorder)(nil)

func testProc(id string) topology.Process {
	return topology.Process{ID: id, Processor: topology.Processor{Type: "test"}}
}

// TestSpanBatching proves a span-capable sink receives each probe pair as
// one batch whose record order and seq assignment are exactly those of the
// unbatched path.
func TestSpanBatching(t *testing.T) {
	span := &spanRecorder{}
	mem := &MemorySink{}
	gen := &uuid.SequentialGenerator{Seed: 7}
	genB := &uuid.SequentialGenerator{Seed: 7}
	pb, err := New(Config{Process: testProc("p"), Sink: span, Chains: gen})
	if err != nil {
		t.Fatal(err)
	}
	pm, err := New(Config{Process: testProc("p"), Sink: mem, Chains: genB})
	if err != nil {
		t.Fatal(err)
	}

	scenario := func(p *Probes) {
		// Synchronous remote call: stub pair on this goroutine, skeleton
		// pair logically on the callee side (same goroutine suffices for
		// record content).
		op := OpID{Component: "c", Interface: "I", Operation: "echo"}
		sctx := p.StubStart(op, false)
		kctx := p.SkelStart(op, sctx.Wire, false)
		reply := p.SkelEnd(kctx)
		p.StubEnd(sctx, reply)
		p.Tunnel().ClearG(gls.SelfID())

		// Collocated call: all four records in one span.
		cctx := p.CollocStart(op)
		p.CollocEnd(cctx)
		p.Tunnel().ClearG(gls.SelfID())

		// Oneway: stub span carries the chain link.
		octx := p.StubStart(op, true)
		p.StubEnd(octx, ftl.FTL{})
		p.Tunnel().ClearG(gls.SelfID())
	}
	scenario(pb)
	scenario(pm)

	wantBatches := [][]ftl.Event{
		{ftl.SkelStart, ftl.SkelEnd},                             // skeleton span closes first
		{ftl.StubStart, ftl.StubEnd},                             // then the stub span
		{ftl.StubStart, ftl.SkelStart, ftl.SkelEnd, ftl.StubEnd}, // collocated
		{ftl.StubStart, 0, ftl.StubEnd},                          // oneway stub + link
	}
	if len(span.batches) != len(wantBatches) {
		t.Fatalf("got %d batches, want %d", len(span.batches), len(wantBatches))
	}
	for i, want := range wantBatches {
		got := span.batches[i]
		if len(got) != len(want) {
			t.Fatalf("batch %d has %d records, want %d", i, len(got), len(want))
		}
		for j, ev := range want {
			if ev == 0 {
				if got[j].Kind != KindLink {
					t.Fatalf("batch %d record %d: want link, got %v", i, j, got[j].Event)
				}
				continue
			}
			if got[j].Kind != KindEvent || got[j].Event != ev {
				t.Fatalf("batch %d record %d: got %v, want %v", i, j, got[j].Event, ev)
			}
		}
	}

	// The batched stream, ordered by (chain, seq), must be identical to the
	// unbatched MemorySink stream ordered the same way (both generators are
	// seeded identically).
	key := func(r Record) [3]uint64 {
		k := uint64(0)
		if r.Kind == KindLink {
			k = 1
		}
		var c uuid.UUID
		if r.Kind == KindLink {
			c = r.LinkParent
		} else {
			c = r.Chain
		}
		return [3]uint64{k, uint64(c[0])<<8 | uint64(c[15]), r.Seq}
	}
	batched := append([]Record(nil), span.flat...)
	unbatched := mem.Snapshot()
	if len(batched) != len(unbatched) {
		t.Fatalf("batched %d records, unbatched %d", len(batched), len(unbatched))
	}
	count := map[[3]uint64]int{}
	for i := range batched {
		count[key(batched[i])]++
		count[key(unbatched[i])]--
	}
	for k, v := range count {
		if v != 0 {
			t.Fatalf("record multiset mismatch at key %v (delta %d)", k, v)
		}
	}
}

// spanOf builds an n-record span whose records carry seq.
func spanOf(n int, seq uint64) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Kind: KindEvent, Thread: 1, Seq: seq}
	}
	return recs
}

// TestSpanRingEvictsOldest fills a four-cell ring and overflows it: each
// push past capacity evicts the oldest resident span and reports its
// records, every push reports the resident count it left, and what remains
// pops whole spans in FIFO order.
func TestSpanRingEvictsOldest(t *testing.T) {
	r := NewSpanRing(4)
	for i := 0; i < 4; i++ {
		if d, n := r.Push(spanOf(2, uint64(i))); d != 0 || n != 2*(i+1) {
			t.Fatalf("push %d into a ring with room dropped %d and left %d resident, want 0 and %d", i, d, n, 2*(i+1))
		}
	}
	for i := 4; i < 6; i++ {
		if d, n := r.Push(spanOf(2, uint64(i))); d != 2 || n != 8 {
			t.Fatalf("push %d into a full ring dropped %d and left %d resident, want the oldest span's 2 and 8", i, d, n)
		}
	}
	if got := r.Buffered(); got != 8 {
		t.Fatalf("buffered %d, want 8", got)
	}
	got := r.PopInto(nil, 1<<10)
	if len(got) != 8 {
		t.Fatalf("popped %d records, want 8", len(got))
	}
	for i, rec := range got {
		if want := uint64(2 + i/2); rec.Seq != want {
			t.Fatalf("record %d has seq %d, want %d (the two oldest spans evicted)", i, rec.Seq, want)
		}
	}
	if got := r.Buffered(); got != 0 {
		t.Fatalf("buffered %d after draining, want 0", got)
	}
}

// TestSpanRingOneCellConserves asks for a one-cell ring, which the Vyukov
// protocol cannot run (its resident span reads as free to the next
// producer): the ring rounds up to two cells, and every record pushed is
// popped or counted dropped.
func TestSpanRingOneCellConserves(t *testing.T) {
	r := NewSpanRing(1)
	dropped := 0
	for i := 0; i < 3; i++ {
		d, _ := r.Push(spanOf(1, uint64(i)))
		dropped += d
	}
	got := r.PopInto(nil, 8)
	if len(got)+dropped != 3 || dropped != 1 || got[0].Seq != 1 {
		t.Fatalf("popped %+v and dropped %d of 3 records, want seqs 1 and 2 with 1 dropped", got, dropped)
	}
}

// TestSpanRingShedsWhenOldestWedged holds the oldest cell mid-delivery
// through reserve, so a producer facing a full ring has nothing it may
// evict: after the bounded attempts it sheds its own span, counts it, and
// returns. Once the consumer releases the cell, pushes store again.
func TestSpanRingShedsWhenOldestWedged(t *testing.T) {
	r := NewSpanRing(2)
	r.Push(spanOf(1, 0))
	r.Push(spanOf(1, 1))
	held, rel := r.reserve()
	if held == nil || held.recs[0].Seq != 0 {
		t.Fatal("reserve did not claim the oldest span")
	}
	if got := r.PopInto(nil, 1); len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("popped %+v, want the second span", got)
	}

	// The ring is full (one cell held, the next is the held one's slot
	// again) and its oldest cell is not evictable.
	if d, _ := r.Push(spanOf(3, 2)); d != 3 {
		t.Fatalf("push against a wedged cell dropped %d, want the incoming 3", d)
	}
	if got := r.Buffered(); got != 1 {
		t.Fatalf("buffered %d, want only the held span", got)
	}

	held.clear()
	held.seq.Store(rel)
	r.buffered.Add(-1)
	if d, _ := r.Push(spanOf(2, 3)); d != 0 {
		t.Fatalf("push after release dropped %d", d)
	}
	if got := r.PopInto(nil, 8); len(got) != 2 || got[0].Seq != 3 {
		t.Fatalf("popped %+v, want the span pushed after release", got)
	}
}

// TestSpanRingConcurrent hammers a small ring from 24 producers while one
// consumer pops; under -race this doubles as the memory-safety proof for
// the cell protocol. Every pushed record is popped or counted dropped.
func TestSpanRingConcurrent(t *testing.T) {
	r := NewSpanRing(64)
	const (
		producers = 24
		spans     = 200
	)
	var dropped atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < spans; i++ {
				d, _ := r.Push(spanOf(1+(g+i)%4, uint64(i)))
				dropped.Add(int64(d))
			}
		}(g)
	}
	stop := make(chan struct{})
	popped := make(chan int)
	go func() {
		n := 0
		var buf []Record
		for {
			select {
			case <-stop:
				popped <- n + len(r.PopInto(buf[:0], 1<<20))
				return
			default:
			}
			buf = r.PopInto(buf[:0], 16)
			n += len(buf)
			if len(buf) == 0 {
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	close(stop)
	got := <-popped

	pushed := 0
	for g := 0; g < producers; g++ {
		for i := 0; i < spans; i++ {
			pushed += 1 + (g+i)%4
		}
	}
	if int64(pushed) != int64(got)+dropped.Load() {
		t.Fatalf("conservation violated: pushed %d, popped %d, dropped %d", pushed, got, dropped.Load())
	}
	if b := r.Buffered(); b != 0 {
		t.Fatalf("buffered %d after the final drain, want 0", b)
	}
}

// TestSpanRingPushAllocFree pins the producer path at zero allocations,
// with and without eviction.
func TestSpanRingPushAllocFree(t *testing.T) {
	r := NewSpanRing(8)
	span := spanOf(4, 1)
	allocs := testing.AllocsPerRun(500, func() { r.Push(span) })
	if allocs != 0 {
		t.Fatalf("span push allocates %.1f/op, want 0", allocs)
	}
}
