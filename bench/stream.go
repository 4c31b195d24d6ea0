package main

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"causeway/internal/ftl"
	"causeway/internal/probe"
	"causeway/internal/uuid"
	"causeway/internal/workload"
)

// Benchmark constants of the record-stream workloads. README.md says why
// each has the value it has.
const (
	// streamCalls sizes one pass of the Figure-5 stream: a quarter of the
	// paper's 195 000-call run, so that generating it fits the set-up
	// budget; query-scale stores four passes to get back to Figure-5 scale.
	streamCalls = 48750
	// virtualThreads is the paper's thread count. The stream is generated
	// on one goroutine (so it is a pure function of the seed) and its call
	// trees are then dealt round-robin onto this many virtual threads whose
	// records interleave one at a time, as 32 concurrent clients' would.
	virtualThreads = 32
	// shipperCount bounds the shipper connections (≤ nproc on the
	// calibration host).
	shipperCount = 2
)

// stream is one pass of generated records in delivery order, plus what the
// load generators and the oracle need to know about it.
type stream struct {
	recs []probe.Record
	// pin[i] is the shipper record i travels on. A process is pinned to
	// one shipper, so per-process order survives shipping.
	pin []uint8
	// last[i] marks the final record of its chain in delivery order; the
	// freshness clock of a chain starts there.
	last []bool
	// procs lists the process IDs, sorted; procs[len-1] is the one the
	// skew workload delays.
	procs []string
	// roots lists the chains that begin a top-level call tree, in stream
	// order; a oneway child chain hangs under its parent's tree instead.
	roots      []uuid.UUID
	calls      int // invocations generated == DSCG nodes expected
	chains     int
	interfaces int
}

// generateStream runs workload.Generate single-threaded — with one client
// thread the catalog, the call trees, the UUIDs and the emission order are
// all functions of the seed alone — and interleaves the result across
// virtualThreads. scale shrinks the call count for smoke runs.
func generateStream(seed int64, scale float64) (*stream, error) {
	calls := int(float64(streamCalls) * scale)
	if calls < 200 {
		calls = 200
	}
	sys, err := workload.Generate(workload.Config{
		Calls:   calls,
		Threads: 1,
		Seed:    seed,
		Aspects: probe.AspectLatency,
	})
	if err != nil {
		return nil, fmt.Errorf("generate stream: %w", err)
	}
	st := &stream{}
	for id := range sys.Sinks {
		st.procs = append(st.procs, id)
	}
	sort.Strings(st.procs)

	// Global emission order: merge the per-process logs by probe start
	// time. Link records carry no timestamp; they ride directly behind the
	// record their process emitted before them.
	type stamped struct {
		at  time.Time
		rec probe.Record
	}
	var all []stamped
	for _, id := range st.procs {
		var prev time.Time
		for _, r := range sys.Sinks[id].Snapshot() {
			if r.Kind == probe.KindEvent {
				prev = r.WallStart
			}
			all = append(all, stamped{prev, r})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at.Before(all[j].at) })

	// Deal top-level call trees onto virtual threads. A tree begins at a
	// stub_start on a chain not seen before: nested calls continue their
	// caller's chain and oneway child chains begin at a skel_start.
	threads := make([][]probe.Record, virtualThreads)
	seen := make(map[uuid.UUID]bool)
	ifaces := make(map[string]bool)
	tree := -1
	for _, s := range all {
		r := s.rec
		// Drop the monotonic clock readings, as a trip through any log or
		// wire does: the reference the oracle computes from these records
		// must subtract the same wall-clock values the stored copies hold.
		r.WallStart, r.WallEnd = r.WallStart.Round(0), r.WallEnd.Round(0)
		if r.Kind == probe.KindEvent {
			if !seen[r.Chain] {
				seen[r.Chain] = true
				if r.Event == ftl.StubStart {
					tree++
					st.roots = append(st.roots, r.Chain)
				}
			}
			if r.Event == ftl.StubStart {
				st.calls++
				ifaces[r.Op.Interface] = true
			}
		}
		t := tree
		if t < 0 {
			t = 0
		}
		threads[t%virtualThreads] = append(threads[t%virtualThreads], r)
	}
	st.chains = len(seen)
	st.interfaces = len(ifaces)

	st.recs = make([]probe.Record, 0, len(all))
	for i := 0; len(st.recs) < len(all); i++ {
		for _, th := range threads {
			if i < len(th) {
				st.recs = append(st.recs, th[i])
			}
		}
	}

	pinOf := make(map[string]uint8, len(st.procs))
	for i, id := range st.procs {
		pinOf[id] = uint8(i % shipperCount)
	}
	st.pin = make([]uint8, len(st.recs))
	st.last = make([]bool, len(st.recs))
	lastAt := make(map[uuid.UUID]int, st.chains)
	for i := range st.recs {
		r := &st.recs[i]
		st.pin[i] = pinOf[r.Process]
		if r.Kind == probe.KindEvent {
			lastAt[r.Chain] = i
		}
	}
	for _, i := range lastAt {
		st.last[i] = true
	}
	return st, nil
}

// rekey gives pass p of the stream its own chains. SequentialGenerator
// leaves bytes 8..11 of a UUID zero (the high half of a 64-bit counter that
// never gets there), so writing p there can collide with no other chain.
func rekey(r *probe.Record, pass int) {
	if pass == 0 {
		return
	}
	p := uint32(pass)
	if r.Kind == probe.KindLink {
		binary.BigEndian.PutUint32(r.LinkParent[8:12], p)
		binary.BigEndian.PutUint32(r.LinkChild[8:12], p)
		return
	}
	binary.BigEndian.PutUint32(r.Chain[8:12], p)
}

// passOf inverts rekey for a chain UUID.
func passOf(chain uuid.UUID) int {
	return int(binary.BigEndian.Uint32(chain[8:12]))
}

// delivery is one record of an open-loop schedule.
type delivery struct {
	due  time.Duration // since the start of the measured window
	idx  int32         // index into stream.recs
	pass int32
}

// schedule lays the first n records of the stream (wrapping into further
// passes) on a fixed-rate timeline and delays every record of the lagged
// process by lag, as a reconnecting or back-logged shipper would. Chains
// the cut at n would tear are left out whole: a torn chain never completes
// and would sit in the assembler until StaleAfter. It is a pure function of
// its arguments.
func (st *stream) schedule(n int, rate float64, lag time.Duration) []delivery {
	lagged := st.procs[len(st.procs)-1]
	// Chains with an event beyond the cut in the final, partial pass.
	torn := make(map[uuid.UUID]bool)
	for _, r := range st.recs[n%len(st.recs):] {
		if r.Kind == probe.KindEvent {
			torn[r.Chain] = true
		}
	}
	out := make([]delivery, 0, n)
	for k := 0; k < n; k++ {
		i, pass := k%len(st.recs), k/len(st.recs)
		r := &st.recs[i]
		if pass == n/len(st.recs) && r.Kind == probe.KindEvent && torn[r.Chain] {
			continue
		}
		due := time.Duration(float64(k) / rate * float64(time.Second))
		if r.Process == lagged {
			due += lag
		}
		out = append(out, delivery{due: due, idx: int32(i), pass: int32(pass)})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// passZero returns the records of pass 0 that sched delivers, in emission
// order — what the oracle feeds the reference store.
func (st *stream) passZero(sched []delivery) []probe.Record {
	idx := make([]int, 0, len(st.recs))
	for _, d := range sched {
		if d.pass == 0 {
			idx = append(idx, int(d.idx))
		}
	}
	sort.Ints(idx)
	out := make([]probe.Record, len(idx))
	for i, j := range idx {
		out[i] = st.recs[j]
	}
	return out
}
