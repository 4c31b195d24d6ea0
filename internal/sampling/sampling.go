// Package sampling implements head-consistent chain sampling with
// tail-based retention — the load-shedding layer that lets the
// monitoring plane run at scales where retaining every FTL record is
// impossible, without ever half-recording a chain.
//
// # Head consistency
//
// The keep/drop decision for a chain is made exactly once, at the
// head of the chain — the process whose probe begins the fresh chain
// (ftl.Tunnel.CurrentOrBegin reporting fresh). The decision is encoded
// into the FTL's flags byte and travels the wire with the chain id and
// sequence number, so every downstream process applies the same
// decision without coordination. Oneway child chains inherit the
// parent's flags (ftl.Tunnel.BeginChild), making the chain *tree* the
// sampling unit: a kept tree is recorded whole, a dropped tree vanishes
// whole. The alternative — per-process coin flips — would litter the
// store with partial chains the analyzer must flag as broken.
//
// The decision itself is a deterministic hash test, not a coin flip:
// Keep(chain, rate) hashes the chain UUID (FNV-1a) against a rate
// threshold. Determinism buys reproducibility (the same chain id makes
// the same decision in every process and every test run) and keeps the
// probe hot path allocation-free.
//
// # Tail-based retention
//
// Head sampling is blind: at decision time nothing is known about the
// chain. Tail retention runs at the collector when a chain completes,
// where everything is known — latency, brokenness, anomalies. TailPolicy
// always retains slow, broken, and anomalous chains (the interesting
// ones) and subjects normal chains to a second deterministic rate test.
//
// # Adaptive control
//
// Governor closes the loop: an AIMD controller (multiplicative decrease
// on overload signals — assembler backlog and drop deltas —
// additive increase when healthy) steers the head-sampling rate that
// collectd serves back to its shippers, so the deployment sheds load by
// itself under pressure.
package sampling

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"causeway/internal/uuid"
)

// Keep reports the head-consistent sampling decision for chain at rate.
// rate >= 1 keeps everything, rate <= 0 drops everything; in between,
// the chain UUID's FNV-1a hash is tested against the rate threshold, so
// the decision is a pure function of (chain, rate) — every process and
// every run agrees.
func Keep(chain uuid.UUID, rate float64) bool {
	if rate >= 1 {
		return true
	}
	if rate <= 0 {
		return false
	}
	return uuid.Hash64(chain) < uint64(rate*float64(math.MaxUint64))
}

// HeadSampler decides, at chain start, whether a fresh chain is
// recorded. Probes consult it exactly once per chain and stamp the
// outcome into the FTL flags.
type HeadSampler interface {
	SampleHead(chain uuid.UUID) bool
}

// Always is a HeadSampler that keeps every chain (rate 1.0).
type Always struct{}

// SampleHead implements HeadSampler.
func (Always) SampleHead(uuid.UUID) bool { return true }

// Fixed is a HeadSampler with a constant rate.
type Fixed float64

// SampleHead implements HeadSampler.
func (r Fixed) SampleHead(chain uuid.UUID) bool { return Keep(chain, float64(r)) }

// Controlled is a HeadSampler whose rate is adjusted at runtime — by a
// Governor on the collector, or by a shipper polling the collector's
// current rate. It is safe for concurrent use from probe hot paths:
// SampleHead is one atomic load plus a hash, no allocation.
type Controlled struct {
	bits    atomic.Uint64 // math.Float64bits of the current rate
	kept    atomic.Uint64
	dropped atomic.Uint64
}

// NewControlled returns a Controlled sampler starting at rate.
func NewControlled(rate float64) *Controlled {
	c := &Controlled{}
	c.SetRate(rate)
	return c
}

// SetRate publishes a new sampling rate, clamped to [0, 1].
func (c *Controlled) SetRate(rate float64) {
	c.bits.Store(math.Float64bits(clamp01(rate)))
}

// Rate returns the current sampling rate.
func (c *Controlled) Rate() float64 { return math.Float64frombits(c.bits.Load()) }

// SampleHead implements HeadSampler, counting the decision.
func (c *Controlled) SampleHead(chain uuid.UUID) bool {
	if Keep(chain, c.Rate()) {
		c.kept.Add(1)
		return true
	}
	c.dropped.Add(1)
	return false
}

// Counts returns how many fresh chains were kept and dropped so far.
func (c *Controlled) Counts() (kept, dropped uint64) {
	return c.kept.Load(), c.dropped.Load()
}

// WriteMetrics emits the sampler's state in text exposition format.
func (c *Controlled) WriteMetrics(w io.Writer) {
	kept, dropped := c.Counts()
	fmt.Fprintf(w, "causeway_sampling_rate %g\n", c.Rate())
	fmt.Fprintf(w, "causeway_sampling_chains_kept_total %d\n", kept)
	fmt.Fprintf(w, "causeway_sampling_chains_dropped_total %d\n", dropped)
}

func clamp01(v float64) float64 {
	switch {
	case v < 0 || math.IsNaN(v):
		return 0
	case v > 1:
		return 1
	}
	return v
}
