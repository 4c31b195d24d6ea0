package probe

import (
	"runtime"
	"sync/atomic"
)

// SpanRing is a bounded, lock-free span buffer: the telemetry shipper's
// ring between the probe sites and its background sender. Producers
// enqueue whole spans (1–4 records) into a Vyukov-style MPMC ring, which
// is lock-free for any number of producers and keeps one global FIFO;
// consumers pop spans oldest first. When the ring fills, the producer
// evicts the oldest resident span (drop-oldest: the freshest observations
// survive); if the needed cell is wedged by a consumer mid-delivery, the
// incoming span is shed after a bounded number of attempts so a stalled
// consumer can never block a probe site. All loss is counted by the
// caller via Push's return value.
type SpanRing struct {
	head atomic.Uint64 // next cell to consume
	_    [56]byte      // keep producers and consumers off one cache line
	tail atomic.Uint64 // next cell to produce
	_    [56]byte

	cells    []ringCell
	buffered atomic.Int64 // records currently resident
}

// ringCell holds one span. seq follows the Vyukov protocol: seq==pos means
// free for the producer of round pos; seq==pos+1 means readable by the
// consumer of round pos; consumers release with seq=pos+capacity.
type ringCell struct {
	seq  atomic.Uint64
	n    uint32
	recs [4]Record
}

func (c *ringCell) clear() {
	for i := range c.recs[:c.n] {
		c.recs[i] = Record{} // release string references promptly
	}
	c.n = 0
}

// NewSpanRing builds a ring of capacity span cells, rounded up to a power
// of two and at least two, and allocates them now, so the one-time
// make-and-zero (the shipper's capacity runs into the hundreds of
// thousands) never lands on a probe site. The floor is the protocol's: in
// a one-cell ring a resident span's seq also reads as free to the next
// producer, which would overwrite it uncounted.
func NewSpanRing(capacity int) *SpanRing {
	n := 2
	for n < capacity {
		n <<= 1
	}
	r := &SpanRing{cells: make([]ringCell, n)}
	for i := range r.cells {
		r.cells[i].seq.Store(uint64(i))
	}
	return r
}

// Push enqueues one span. It returns the number of records dropped —
// evicted resident records (ring full), plus the incoming records
// themselves if the span had to be shed — and the resident count this push
// left, read off the same atomic add that applied it. So the count before
// the push, buffered-(len(recs)-dropped), is exact too, and a producer
// learns from its own push alone whether it turned the ring non-empty.
func (r *SpanRing) Push(recs []Record) (dropped, buffered int) {
	if len(recs) == 0 {
		return 0, r.Buffered()
	}
	stored, evicted := r.push(recs)
	delta := -evicted
	dropped = evicted
	if stored {
		delta += len(recs)
	} else {
		dropped += len(recs)
	}
	return dropped, int(r.buffered.Add(int64(delta)))
}

// PopInto appends resident spans to dst (whole spans at a time, oldest
// first) until at least max records were taken or the ring is observed
// empty, and returns the extended slice.
func (r *SpanRing) PopInto(dst []Record, max int) []Record {
	taken := 0
	for taken < max {
		c, rel := r.reserve()
		if c == nil {
			break
		}
		n := int(c.n)
		dst = append(dst, c.recs[:n]...)
		c.clear()
		c.seq.Store(rel)
		taken += n
	}
	if taken != 0 {
		r.buffered.Add(int64(-taken))
	}
	return dst
}

// Buffered reports the number of resident records.
func (r *SpanRing) Buffered() int { return int(r.buffered.Load()) }

// push enqueues one span, evicting the oldest resident span when the ring
// is full (drop-oldest). If the cell the producer needs is wedged — a
// consumer is mid-delivery in it and eviction cannot free it — the incoming
// span is shed instead after a bounded number of attempts, so a stalled
// consumer can never block a probe site. Returns whether the span was
// stored and how many resident records were evicted.
func (r *SpanRing) push(recs []Record) (stored bool, evicted int) {
	mask := uint64(len(r.cells) - 1)
	const maxAttempts = 64
	attempts := 0
	for {
		t := r.tail.Load()
		c := &r.cells[t&mask]
		s := c.seq.Load()
		switch {
		case s == t:
			if r.tail.CompareAndSwap(t, t+1) {
				c.n = uint32(copy(c.recs[:], recs))
				c.seq.Store(t + 1)
				return true, evicted
			}
		case s < t:
			// Full: shed the oldest span so the freshest survives.
			h := r.head.Load()
			oc := &r.cells[h&mask]
			os := oc.seq.Load()
			if os == h+1 && r.head.CompareAndSwap(h, h+1) {
				evicted += int(oc.n)
				oc.clear()
				oc.seq.Store(h + mask + 1)
				continue
			}
			// Nothing evictable: the oldest resident cell is mid-delivery.
			attempts++
			if attempts >= maxAttempts {
				return false, evicted // shed the incoming span
			}
			if attempts%8 == 0 {
				runtime.Gosched()
			}
		default:
			// Another producer advanced tail between our loads; retry.
		}
	}
}

// reserve claims the oldest readable span for delivery. It returns the
// claimed cell and the sequence value to store on release, or (nil, 0) when
// the ring has nothing readable. Safe for concurrent consumers. Callers
// must clear() the cell and store the release value when done; the ring's
// buffered counter is the caller's to maintain.
func (r *SpanRing) reserve() (*ringCell, uint64) {
	mask := uint64(len(r.cells) - 1)
	for {
		h := r.head.Load()
		c := &r.cells[h&mask]
		s := c.seq.Load()
		if s == h+1 {
			if r.head.CompareAndSwap(h, h+1) {
				return c, h + mask + 1
			}
			continue
		}
		if s > h+1 {
			continue // another consumer advanced head; reload
		}
		return nil, 0 // empty, or producer mid-write
	}
}
