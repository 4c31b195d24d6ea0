package analysis

import (
	"runtime"
	"sync"
	"sync/atomic"
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
// logdb locks the whole map, tracestore locks per shard).
func ReconstructParallel(db Source, workers int) *DSCG {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chains := db.Chains()
	if workers == 1 || len(chains) < 2 {
		return ReconstructFrom(db)
	}
	parsed := make([]ParsedChain, len(chains))
	parallelFor(len(chains), workers, func(i int) {
		parsed[i] = ParseChainEvents(chains[i], db.Events(chains[i]))
	})
	return AssembleParsed(db, chains, parsed)
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
