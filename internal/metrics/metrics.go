// Package metrics is the in-process metrics plane: goroutine-sharded,
// allocation-free counters and log-linear latency histograms, aggregated
// per operation and per interface by a Registry and rendered as a plain
// text exposition for the /metrics endpoint (internal/debugserver).
//
// The package is deliberately a leaf: it imports only the standard
// library, because everything above it — probes, the ORB, the transport,
// the telemetry shipper, the online monitor — reports into it, and those
// packages sit below the analysis stack in the import graph.
//
// # The bucket scheme, shared with the offline analyzer
//
// 540 exponential buckets at 5% growth (gamma 1.05), bucket 0 holding
// durations <= 1ns, each bucket represented by its upper bound so
// quantiles never under-report, and the q-quantile read as the first
// bucket whose cumulative count reaches ceil(q*total). BucketOf,
// BucketValue and QuantileRank are the only copy of that scheme: the
// offline analyzer's Digest (analysis/quantile) counts into the same
// buckets through them, so feeding a Histogram and a Digest the same
// observations yields bit-identical p50/p95/p99 — the property that lets
// a live /metrics scrape agree with offline InterfaceStat quantiles.
package metrics

import (
	"math"
	"sync/atomic"
	"time"
	"unsafe"
)

// Bucket-scheme constants.
const (
	// NumBuckets spans 1ns..~290s at 5% growth; larger values clamp to
	// the last bucket.
	NumBuckets = 540
	gamma      = 1.05
)

var logGamma = math.Log(gamma)

// BucketOf maps a duration to its bucket index.
func BucketOf(v time.Duration) int {
	if v <= 1 {
		return 0
	}
	i := int(math.Log(float64(v))/logGamma) + 1
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	return i
}

// BucketValue returns the representative duration of bucket i (its upper
// bound, so quantiles never under-report).
func BucketValue(i int) time.Duration {
	if i == 0 {
		return 1
	}
	return time.Duration(math.Exp(float64(i) * logGamma))
}

// QuantileRank returns the rank, counting from 1, of the observation that
// realizes the q-quantile of total > 0 observations: ceil(q*total) with q
// clamped to [0,1]. The quantile is the value of the first bucket whose
// cumulative count reaches it.
func QuantileRank(q float64, total uint64) uint64 {
	q = min(max(q, 0), 1)
	return max(uint64(math.Ceil(q*float64(total))), 1)
}

// counterShards spreads concurrent writers across cache lines. Power of
// two so the shard pick is a mask, not a division.
const counterShards = 64

// counterShard is one padded slot: the counter occupies its own cache
// line so two goroutines on different shards never false-share.
type counterShard struct {
	n atomic.Uint64
	_ [56]byte
}

// Counter is a goroutine-sharded monotonic counter. Add never allocates
// and scales with writer concurrency; Load sums the shards (reads are
// rare — scrapes — so their cost does not matter).
//
// The zero value is ready to use. Counters must not be copied after use.
type Counter struct {
	shards [counterShards]counterShard
}

// shardHint derives a cheap shard index from the address of a stack
// variable: distinct goroutines run on distinct stacks, so stack-address
// high bits spread concurrent writers across shards without touching the
// runtime. Call sites that already resolved a goroutine id (the probe hot
// path) use AddAt instead and skip even this.
func shardHint() uint64 {
	var marker byte
	return uint64(uintptr(unsafe.Pointer(&marker)) >> 10)
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) {
	c.shards[shardHint()&(counterShards-1)].n.Add(delta)
}

// AddAt increments the counter by delta on the shard selected by hint —
// the form the probe hot path uses with its cached goroutine id, so the
// shard pick costs a mask instead of a stack-address derivation.
func (c *Counter) AddAt(hint, delta uint64) {
	c.shards[hint&(counterShards-1)].n.Add(delta)
}

// Load sums the shards.
func (c *Counter) Load() uint64 {
	var total uint64
	for i := range c.shards {
		total += c.shards[i].n.Load()
	}
	return total
}

// Histogram is a lock-free log-linear latency histogram over durations,
// bucket-compatible with the offline analyzer's Digest (see the package
// comment). Observe never allocates. The zero value is ready to use;
// Histograms must not be copied after use.
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
	// ex, when armed, holds one last-write-wins exemplar slot per bucket
	// (see exemplar.go); nil until ArmExemplars so unarmed histograms pay
	// a single atomic load on the chain-carrying observe path and nothing
	// on Observe.
	ex atomic.Pointer[exemplarSet]
}

// Observe records one duration.
func (h *Histogram) Observe(v time.Duration) {
	h.counts[BucketOf(v)].Add(1)
	h.total.Add(1)
	h.sum.Add(int64(v))
	for {
		cur := h.max.Load()
		if int64(v) <= cur || h.max.CompareAndSwap(cur, int64(v)) {
			return
		}
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum reports the summed observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Max reports the largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile estimates the q-quantile (q in [0,1]); 0 with no
// observations: the first bucket whose cumulative count reaches
// QuantileRank, represented by the bucket's upper bound. Concurrent
// Observes may skew a quantile read by the in-flight observations; scrapes
// tolerate that.
func (h *Histogram) Quantile(q float64) time.Duration {
	i := h.quantileBucket(q)
	if i < 0 {
		return 0
	}
	return BucketValue(i)
}
