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
// workers <= 0 selects GOMAXPROCS. A Source that is also a Scanner is read
// a part at a time, the workers taking parts; each parses a part's chains
// once the part has been read, over the compact records the scan made, and
// the query's symbols keep a table per part. Any other Source is read a
// chain at a time through Events, which it must allow concurrently (logdb
// locks the whole map), each worker interning into a part of its own;
// workers == 1 is then exactly the sequential path.
func ReconstructParallel(db Source, workers int) *DSCG {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sc, ok := db.(Scanner)
	if !ok && workers == 1 {
		return ReconstructFrom(db)
	}
	chains := db.Chains()
	parsed := make([]ParsedChain, len(chains))
	if !ok {
		workers = max(min(workers, len(chains)), 1)
		syms := probe.NewSymbols(workers)
		parallelFor(len(chains), workers, func(w, i int) {
			parsed[i] = parseRecords(chains[i], db.Events(chains[i]), syms, w)
		})
		return assemble(db, chains, parsed)
	}
	at := make(map[uuid.UUID]int, len(chains))
	for i, c := range chains {
		at[c] = i
		// A chain gone by the time its part is read (a live store's sweep)
		// parses as Events' nil would.
		parsed[i].Empty = true
	}
	syms := probe.NewSymbols(sc.Parts())
	parallelFor(sc.Parts(), workers, func(_, p int) {
		sc.ScanPart(p, syms.Table(p), func(c uuid.UUID, events []probe.Compact) {
			if i, ok := at[c]; ok { // not a chain inserted since Chains
				parsed[i] = parseCompacts(c, events, syms)
			}
		})
	})
	return assemble(db, chains, parsed)
}

// A Scanner is a Source that can read its chains back a part at a time, each
// part in one pass over its storage, rather than a chain at a time, as
// compact records. ReconstructParallel discovers it by type assertion, as
// the telemetry server discovers a probe.FrameSink; tracestore.Store is one,
// a part being a shard.
type Scanner interface {
	// Parts is how many parts there are. Parts are disjoint and may be
	// scanned concurrently.
	Parts() int
	// ScanPart calls fn once for each chain of part p with the chain's
	// events as Events returns them, made compact through syms — their
	// strings interned in it, their Part its part, their link blocks
	// dropped. fn may keep events; syms is written only by the scan.
	ScanPart(p int, syms *probe.SymbolTable, fn func(chain uuid.UUID, events []probe.Compact))
}

// forEachTree runs fn on every tree of g on up to GOMAXPROCS goroutines.
// After assembly every node belongs to exactly one tree, so per-tree
// passes touch disjoint nodes.
func (g *DSCG) forEachTree(fn func(*Tree)) {
	parallelFor(len(g.Trees), runtime.GOMAXPROCS(0), func(_, i int) { fn(g.Trees[i]) })
}

// parallelFor calls fn(w, i) for every i in [0, n) on up to workers
// goroutines, numbered w from 0, that take indexes from an atomic counter;
// with one worker it is a plain loop on the caller's goroutine.
func parallelFor(n, workers int, fn func(w, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
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
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}
