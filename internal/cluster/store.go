package cluster

import (
	"io"

	"causeway/internal/analysis"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/uuid"
)

// Store is the one record store a collector composes over: live
// insertion, idempotent insertion for replays and fleet merges, the
// replay scan, the analyzer's queries, and .ftlog export. *logdb.Store
// (memory) and *tracestore.Store (disk) both satisfy it, so a node
// accepts replays and donates moved ranges the same way on either.
// What stays specific to the disk store is what only a disk has:
// Sweep/Swept/Dropped, Warnings, Flush, Close.
type Store interface {
	probe.RecordStore
	// InsertNew inserts only records not held yet — events by
	// (chain, seq), links by (parent, parent seq) — and returns how many
	// it accepted as new. recs is borrowed exactly as Insert's is: replay
	// frames arrive in the telemetry server's decode slab.
	InsertNew(recs ...probe.Record) int
	// RangeRecords streams the records whose routing UUID satisfies pred.
	RangeRecords(pred func(uuid.UUID) bool, emit func(probe.Record) error) error
	analysis.Source
	ComputeStats() logdb.Stats
	WriteStream(w io.Writer) error
	SaveFile(path string) error
	Len() int
}
