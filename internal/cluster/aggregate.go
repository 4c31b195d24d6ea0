package cluster

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"causeway/internal/probe"
)

// Aggregator merges ingest collectors' partial record views into one
// fleet store and counts, per source, what each contributed.
// Chain-range ownership makes the partials disjoint in the steady
// state, but the merge goes through Store.InsertNew anyway — the same
// identities the replay path uses, events by (chain, seq) and links by
// (parent, seq) — because the interesting moments are not steady: a
// collector killed mid-run leaves its already-shipped records both in
// its segments (replayed to the new owner) and possibly re-sent by
// reconnecting shippers. Identity dedup is what makes the fleet DSCG
// byte-identical to the single-collector DSCG regardless.
type Aggregator struct {
	store Store

	mu        sync.Mutex
	accepted  uint64
	duplicate uint64
	perSource map[string]uint64 // accepted per merge source label
}

// NewAggregator wraps the fleet store every accepted record lands in.
func NewAggregator(store Store) *Aggregator {
	return &Aggregator{store: store, perSource: make(map[string]uint64)}
}

// MergeRecords folds one batch from the named source into the fleet
// store, returning how many records were accepted and how many were
// duplicates of records the store already held.
func (a *Aggregator) MergeRecords(source string, recs []probe.Record) (accepted, dups int) {
	accepted = a.store.InsertNew(recs...)
	dups = len(recs) - accepted
	a.mu.Lock()
	a.accepted += uint64(accepted)
	a.duplicate += uint64(dups)
	a.perSource[source] += uint64(accepted)
	a.mu.Unlock()
	return accepted, dups
}

// MergeStream folds a record stream — the bytes logdb.WriteRecords and
// `causectl export` emit, which ingest collectd serves at /exportz — into
// the fleet store a frame at a time, so a peer's whole store is never held
// at once. Torn tails follow the probe.ReadFrames contract: the complete
// frames merge, the error reports the tear.
func (a *Aggregator) MergeStream(source string, r io.Reader) (accepted, dups int, err error) {
	err = probe.ReadFrames(r, func(recs []probe.Record) {
		acc, dup := a.MergeRecords(source, recs)
		accepted, dups = accepted+acc, dups+dup
	})
	if err != nil {
		return accepted, dups, fmt.Errorf("cluster: merge %s: %w", source, err)
	}
	return accepted, dups, nil
}

// AggregateStats snapshots the merge counters.
type AggregateStats struct {
	Accepted  uint64 // records merged into the fleet store
	Duplicate uint64 // records rejected as already merged
	Sources   map[string]uint64
}

// Stats snapshots the aggregator.
func (a *Aggregator) Stats() AggregateStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	src := make(map[string]uint64, len(a.perSource))
	for k, v := range a.perSource {
		src[k] = v
	}
	return AggregateStats{Accepted: a.accepted, Duplicate: a.duplicate, Sources: src}
}

// WriteMetrics renders the merge counters in exposition format.
func (a *Aggregator) WriteMetrics(w io.Writer) {
	st := a.Stats()
	fmt.Fprintf(w, "causeway_aggregate_records_total %d\n", st.Accepted)
	fmt.Fprintf(w, "causeway_aggregate_duplicates_total %d\n", st.Duplicate)
	ids := make([]string, 0, len(st.Sources))
	for id := range st.Sources {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(w, "causeway_aggregate_source_records_total{source=%q} %d\n", id, st.Sources[id])
	}
}
