// Package online applies the global causality capturing technique "from
// the on-line perspective for application-level system management" — one
// of the paper's §6 future-work directions, built here as an extension.
//
// A Monitor is the collector's chain table (internal/streamrecon) built
// without a store: a probe.Sink that drives the analyzer's Figure-4 state
// machine per chain as records arrive, applying each chain's events in
// sequence-number order and parking early arrivals, and hands every closed
// top-level invocation to OnRoot with latency computed — without waiting
// for the application to reach a quiescent state as the offline analyzer
// does (§3). FlushOpen is that quiescent state declared: after it the
// monitor has delivered exactly what analysis.ParseChainEvents reports for
// the records it applied.
package online

import "causeway/internal/streamrecon"

type (
	// Monitor incrementally reconstructs causality from a live record
	// stream.
	Monitor = streamrecon.Assembler
	// Config wires the monitor's callbacks (OnRoot, OnSlow and
	// SlowThreshold, OnAnomaly, Metrics, RecentRoots).
	Config = streamrecon.Config
	// RootEvent describes one closed top-level invocation.
	RootEvent = streamrecon.RootEvent
	// RootSummary is one completed top-level invocation, condensed for
	// /chainz.
	RootSummary = streamrecon.RootSummary
)

// NewMonitor builds an online monitor: the chain table with no store.
func NewMonitor(cfg Config) *Monitor { return streamrecon.NewMonitor(cfg) }
