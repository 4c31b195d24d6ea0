// Exemplars link the aggregate view back to causality: each histogram
// bucket can optionally remember the chain UUID of the most recent
// observation that landed in it. A p99 line in the exposition then names
// an actual causal chain whose DSCG explains the latency — the bridge
// from "the quantile moved" to "this request did it".
//
// The slot is last-write-wins and lock-free. A writer claims the slot by
// CASing the version from even to odd, stores the payload, and publishes
// with version+2; a writer that loses the claim simply drops its sample
// (LWW permits that — some recent observation wins, not necessarily the
// last). Readers snapshot the version, copy the payload, and retry if the
// version moved. All fields are atomics, so the protocol is race-detector
// clean, and the armed write path performs zero allocations — the probe
// hot path keeps its PR 9 budgets.
package metrics

import (
	"encoding/binary"
	"encoding/hex"
	"sync/atomic"
	"time"
)

// ChainID is a causal chain identity as the metrics plane sees it: the
// raw 16 bytes of the FTL chain UUID. The package stays a standard-
// library leaf; callers convert from their UUID type (also a [16]byte
// array) for free. The zero ChainID means "no exemplar".
type ChainID [16]byte

// String renders the chain in canonical 8-4-4-4-12 UUID form.
func (c ChainID) String() string {
	var buf [36]byte
	hex.Encode(buf[0:8], c[0:4])
	buf[8] = '-'
	hex.Encode(buf[9:13], c[4:6])
	buf[13] = '-'
	hex.Encode(buf[14:18], c[6:8])
	buf[18] = '-'
	hex.Encode(buf[19:23], c[8:10])
	buf[23] = '-'
	hex.Encode(buf[24:36], c[10:16])
	return string(buf[:])
}

// IsZero reports whether the chain is the "no exemplar" sentinel.
func (c ChainID) IsZero() bool { return c == ChainID{} }

// Exemplar is one remembered observation: which chain produced it, the
// observed duration, and when it was recorded (unix nanoseconds).
type Exemplar struct {
	Chain ChainID
	Value time.Duration
	When  int64
}

// exemplarSlot is one bucket's last-write-wins cell. ver is even when the
// payload is stable, odd while a writer owns it; 0 means never written.
type exemplarSlot struct {
	ver  atomic.Uint64
	hi   atomic.Uint64 // chain bytes 0..7, big endian
	lo   atomic.Uint64 // chain bytes 8..15, big endian
	val  atomic.Int64
	when atomic.Int64
}

// store stamps the slot with a new exemplar. Losing a claim race drops
// the sample — acceptable under LWW, and it keeps the path wait-free.
func (s *exemplarSlot) store(chain ChainID, val, when int64) {
	v := s.ver.Load()
	if v&1 != 0 {
		return // another writer mid-stamp; theirs is at least as recent
	}
	if !s.ver.CompareAndSwap(v, v+1) {
		return
	}
	s.hi.Store(binary.BigEndian.Uint64(chain[0:8]))
	s.lo.Store(binary.BigEndian.Uint64(chain[8:16]))
	s.val.Store(val)
	s.when.Store(when)
	s.ver.Store(v + 2)
}

// load reads a consistent snapshot; ok is false when the slot was never
// written or a writer kept it unstable across every retry.
func (s *exemplarSlot) load() (Exemplar, bool) {
	for attempt := 0; attempt < 8; attempt++ {
		v := s.ver.Load()
		if v == 0 {
			return Exemplar{}, false
		}
		if v&1 != 0 {
			continue
		}
		var e Exemplar
		binary.BigEndian.PutUint64(e.Chain[0:8], s.hi.Load())
		binary.BigEndian.PutUint64(e.Chain[8:16], s.lo.Load())
		e.Value = time.Duration(s.val.Load())
		e.When = s.when.Load()
		if s.ver.Load() == v {
			return e, true
		}
	}
	return Exemplar{}, false
}

// exemplarSet is one slot per histogram bucket, allocated lazily on
// arming so unarmed histograms pay nothing.
type exemplarSet [NumBuckets]exemplarSlot

// ArmExemplars enables exemplar capture on the histogram. Idempotent and
// safe concurrently with observers; until armed, ObserveEx behaves like
// Observe at the cost of one atomic load.
func (h *Histogram) ArmExemplars() {
	if h.ex.Load() == nil {
		h.ex.CompareAndSwap(nil, &exemplarSet{})
	}
}

// ExemplarsArmed reports whether the histogram captures exemplars.
func (h *Histogram) ExemplarsArmed() bool { return h.ex.Load() != nil }

// ObserveEx records one duration and, when exemplars are armed and chain
// is non-zero, stamps the chain as its bucket's exemplar. when is the
// observation's wall timestamp in unix nanoseconds. Never allocates.
func (h *Histogram) ObserveEx(v time.Duration, chain ChainID, when int64) {
	b := BucketOf(v)
	h.counts[b].Add(1)
	h.total.Add(1)
	h.sum.Add(int64(v))
	for {
		cur := h.max.Load()
		if int64(v) <= cur || h.max.CompareAndSwap(cur, int64(v)) {
			break
		}
	}
	if chain.IsZero() {
		return
	}
	if set := h.ex.Load(); set != nil {
		set[b].store(chain, int64(v), when)
	}
}

// BucketExemplar returns bucket i's exemplar, if one was captured.
func (h *Histogram) BucketExemplar(i int) (Exemplar, bool) {
	set := h.ex.Load()
	if set == nil || i < 0 || i >= NumBuckets {
		return Exemplar{}, false
	}
	return set[i].load()
}

// CountOver reports how many observations landed strictly above the
// bucket containing v — the "bad count" an SLO burn-rate evaluator
// divides by Count(). The objective is effectively rounded up to its
// bucket's upper bound, consistent with the digest convention that
// quantiles never under-report.
func (h *Histogram) CountOver(v time.Duration) uint64 {
	var n uint64
	for i := BucketOf(v) + 1; i < NumBuckets; i++ {
		n += h.counts[i].Load()
	}
	return n
}

// ExemplarsAbove collects up to max exemplars from buckets strictly above
// the bucket containing v, newest buckets first (highest latency down),
// keeping only those stamped at or after since (unix nanoseconds). This
// is how an alert gathers the chains that burned the budget while it was
// pending.
func (h *Histogram) ExemplarsAbove(v time.Duration, since int64, max int) []Exemplar {
	set := h.ex.Load()
	if set == nil || max <= 0 {
		return nil
	}
	var out []Exemplar
	for i := NumBuckets - 1; i > BucketOf(v); i-- {
		if h.counts[i].Load() == 0 {
			continue
		}
		e, ok := set[i].load()
		if !ok || e.When < since {
			continue
		}
		out = append(out, e)
		if len(out) >= max {
			break
		}
	}
	return out
}

// quantileBucket returns the bucket index realizing the q-quantile, or
// -1 with no observations; Quantile is BucketValue of this index.
func (h *Histogram) quantileBucket(q float64) int {
	total := h.total.Load()
	if total == 0 {
		return -1
	}
	rank := QuantileRank(q, total)
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			return i
		}
	}
	return NumBuckets - 1
}
