package cluster

import (
	"causeway/internal/analysis"
	"causeway/internal/logdb"
	"causeway/internal/probe"
)

// Store is the one record store a collector composes over: live
// insertion, idempotent insertion for replays and fleet merges, the
// analyzer's queries, and the read side the replay scan, .ftlog export and
// run statistics are written once against (logdb.RangeRecords,
// WriteRecords, SaveFile, ComputeStats). *logdb.Store (memory) and
// *tracestore.Store (disk) both satisfy it, so a node accepts replays and
// donates moved ranges the same way on either. What stays specific to the
// disk store is what only a disk has: Sweep/Swept/Dropped, Warnings, Flush,
// Close.
type Store interface {
	probe.RecordStore
	// InsertNew inserts only records not held yet — events by
	// (chain, seq), links by (parent, parent seq) — and returns how many
	// it accepted as new. recs is borrowed exactly as Insert's is: replay
	// frames arrive in the telemetry server's decode slab.
	InsertNew(recs ...probe.Record) int
	analysis.Source
	logdb.Records
	Len() int
}
