// Package online is the chain table without a store — the paper's §6
// on-line monitor, streamrecon.NewMonitor — under the names the benchmark
// imports. Nothing else imports it, and it goes once the benchmark builds
// its collector as a cluster.Node; the table and its tests live in
// internal/streamrecon.
package online

import "causeway/internal/streamrecon"

// Config wires the monitor's callbacks (OnRoot, OnSlow and SlowThreshold,
// OnAnomaly, Metrics).
type Config = streamrecon.Config

// NewMonitor builds the chain table with no store.
func NewMonitor(cfg Config) *streamrecon.Assembler { return streamrecon.NewMonitor(cfg) }
