package analysis

import (
	"runtime"
	"sync"
	"sync/atomic"

	"causeway/internal/probe"
	"causeway/internal/uuid"
)

// ReconstructParallel is ReconstructFrom with the Figure-4 state machine
// fanned out over a worker pool. Chains are keyed by a constant-size
// Function UUID and their event lists are disjoint, so the parse phase is
// embarrassingly parallel; only the (cheap) tree grouping and oneway
// stitching tail runs sequentially. The result — trees, node order,
// anomaly order — is identical to the sequential path: workers write their
// output into the chain's own slot and assembly walks the deterministic
// chains order.
//
// workers <= 0 selects GOMAXPROCS; workers == 1 is exactly the sequential
// path. The Source must tolerate concurrent Events calls (both stores do:
// logdb locks the whole map, tracestore locks per shard). A Source that is
// also a Scanner is read a part at a time instead, the workers taking
// parts; each parses a part's chains once the part has been read.
func ReconstructParallel(db Source, workers int) *DSCG {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chains := db.Chains()
	if workers == 1 || len(chains) < 2 {
		return ReconstructFrom(db)
	}
	parsed := make([]ParsedChain, len(chains))
	sc, ok := db.(Scanner)
	if !ok {
		parallelFor(len(chains), workers, func(i int) {
			parsed[i] = ParseChainEvents(chains[i], db.Events(chains[i]))
		})
		return AssembleParsed(db, chains, parsed)
	}
	at := make(map[uuid.UUID]int, len(chains))
	for i, c := range chains {
		at[c] = i
		// A chain gone by the time its part is read (a live store's sweep)
		// parses as Events' nil would.
		parsed[i].Empty = true
	}
	parallelFor(sc.Parts(), workers, func(p int) {
		sc.ScanPart(p, func(c uuid.UUID, events []probe.Record) {
			if i, ok := at[c]; ok { // not a chain inserted since Chains
				parsed[i] = ParseChainEvents(c, events)
			}
		})
	})
	return AssembleParsed(db, chains, parsed)
}

// A Scanner is a Source that can read its chains back a part at a time, each
// part in one pass over its storage, rather than a chain at a time.
// ReconstructParallel discovers it by type assertion, as the telemetry
// server discovers a probe.BatchSink; tracestore.Store is one, a part being
// a shard.
type Scanner interface {
	// Parts is how many parts there are. Parts are disjoint and may be
	// scanned concurrently.
	Parts() int
	// ScanPart calls fn once for each chain of part p with the chain's
	// events as Events returns them; fn may keep events.
	ScanPart(p int, fn func(chain uuid.UUID, events []probe.Record))
}

// forEachTree runs fn on every tree of g on up to GOMAXPROCS goroutines.
// After AssembleParsed every node belongs to exactly one tree, so per-tree
// passes touch disjoint nodes.
func (g *DSCG) forEachTree(fn func(*Tree)) {
	parallelFor(len(g.Trees), runtime.GOMAXPROCS(0), func(i int) { fn(g.Trees[i]) })
}

// parallelFor calls fn(i) for every i in [0, n) on up to workers goroutines
// that take indexes from an atomic counter; with one worker it is a plain
// loop on the caller's goroutine.
func parallelFor(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
