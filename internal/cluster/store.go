package cluster

import (
	"io"

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

// MergeStream folds a record stream — the bytes logdb.WriteRecords and
// `causectl export` emit, which a node serves at /exportz — into dst a
// frame at a time, so a peer's whole store is never held at once. The
// merge goes through InsertNew, the identities the replay path uses:
// chain-range ownership makes collectors' stores disjoint in the steady
// state, but a collector killed mid-run leaves records both in its own
// segments and on the range's new owner, and a donor keeps a copy of
// what it donated. Identity dedup makes the merged store hold each record
// once regardless. accepted counts records dst took as new, dups those it
// already held. Torn tails follow the probe.ReadFrames contract: the
// complete frames merge, the error reports the tear.
func MergeStream(dst Store, r io.Reader) (accepted, dups int, err error) {
	err = probe.ReadFrames(r, func(recs []probe.Record) {
		n := dst.InsertNew(recs...)
		accepted, dups = accepted+n, dups+len(recs)-n
	})
	return accepted, dups, err
}
