package analysis

import (
	"sort"
	"sync"
	"time"

	"causeway/internal/metrics"
	"causeway/internal/probe"
)

// Digest is a streaming quantile estimator over durations: a fixed array
// of exponentially growing buckets (~5% relative width), stdlib-only,
// constant memory, and mergeable — per-worker digests from parallel
// reconstruction combine by adding counts. Quantile estimates carry the
// bucket's relative error (≤ ~5%), which is ample for p50/p95/p99 hot-spot
// ranking. The bucket scheme and the rank rule are internal/metrics', so a
// Digest and a live metrics.Histogram fed the same observations report
// bit-identical quantiles. The zero value is ready to use.
type Digest struct {
	counts [metrics.NumBuckets]uint64
	total  uint64
}

// Add records one observation.
func (d *Digest) Add(v time.Duration) {
	d.counts[metrics.BucketOf(v)]++
	d.total++
}

// Merge folds o into d.
func (d *Digest) Merge(o *Digest) {
	for i, c := range o.counts {
		d.counts[i] += c
	}
	d.total += o.total
}

// Count reports the number of observations.
func (d *Digest) Count() uint64 { return d.total }

// Quantile estimates the q-quantile (q in [0,1]); 0 with no observations.
func (d *Digest) Quantile(q float64) time.Duration {
	if d.total == 0 {
		return 0
	}
	rank := metrics.QuantileRank(q, d.total)
	var seen uint64
	for i, c := range d.counts {
		seen += c
		if seen >= rank {
			return metrics.BucketValue(i)
		}
	}
	return metrics.BucketValue(metrics.NumBuckets - 1)
}

// InterfaceStat aggregates behaviour per IDL interface across the whole
// graph: call counts, latency percentiles from the streaming digest, and
// CPU totals. This is the query behind `causectl top`.
type InterfaceStat struct {
	Interface string
	Calls     int           // invocations of the interface's methods
	Latency   *Digest       // end-to-end latency digest (latency-armed nodes)
	Total     time.Duration // summed compensated latency
	Max       time.Duration
	SelfCPU   time.Duration // summed exclusive CPU (CPU-armed nodes)
}

// P50, P95, P99 are the digest's percentile estimates.
func (s *InterfaceStat) P50() time.Duration { return s.Latency.Quantile(0.50) }
func (s *InterfaceStat) P95() time.Duration { return s.Latency.Quantile(0.95) }
func (s *InterfaceStat) P99() time.Duration { return s.Latency.Quantile(0.99) }

// InterfaceStats aggregates per-interface stats over a graph whose latency
// (and optionally CPU) metrics were computed, sorted by interface name.
// workers > 1 fans the per-tree aggregation out and merges the digests —
// the merge path parallel reconstruction relies on.
func InterfaceStats(g *DSCG, workers int) []InterfaceStat {
	if workers <= 1 || len(g.Trees) < 2 {
		agg := newIfaceAgg()
		for _, t := range g.Trees {
			for _, r := range t.Roots {
				agg.addTree(r)
			}
		}
		return agg.finish()
	}
	if workers > len(g.Trees) {
		workers = len(g.Trees)
	}
	aggs := make([]*ifaceAgg, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			agg := newIfaceAgg()
			for i := w; i < len(g.Trees); i += workers {
				for _, r := range g.Trees[i].Roots {
					agg.addTree(r)
				}
			}
			aggs[w] = agg
		}(w)
	}
	wg.Wait()
	merged := aggs[0]
	for _, a := range aggs[1:] {
		merged.merge(a)
	}
	return merged.finish()
}

// ifaceAgg is one worker's partial per-interface aggregation: a stat per
// interface name, found for a node by the part and symbol id its opener
// names the interface by, which the node keeps. Each id's name is resolved
// and hashed once, the first time a node names it; every later node
// reaches the stat through the id, with no string and no record loaded.
// tab and ids are the table last used and its stats by id.
type ifaceAgg struct {
	byIface map[string]*InterfaceStat
	byID    map[*probe.SymbolTable][]*InterfaceStat
	tab     *probe.SymbolTable
	ids     []*InterfaceStat
}

func newIfaceAgg() *ifaceAgg {
	return &ifaceAgg{byIface: make(map[string]*InterfaceStat), byID: make(map[*probe.SymbolTable][]*InterfaceStat)}
}

func (a *ifaceAgg) stat(iface string) *InterfaceStat {
	s, ok := a.byIface[iface]
	if !ok {
		s = &InterfaceStat{Interface: iface, Latency: &Digest{}}
		a.byIface[iface] = s
	}
	return s
}

func (a *ifaceAgg) addTree(root *Node) {
	root.Walk(func(n *Node) { a.addNode(n) })
}

// statOf returns the stat of n's interface.
func (a *ifaceAgg) statOf(n *Node) *InterfaceStat {
	part, id := n.ifacePart, int(n.ifaceID)-1
	if id < 0 {
		r := n.opener()
		if r == nil {
			return a.stat("")
		}
		part, id = r.Part, int(r.Op.Interface)
	}
	if tab := n.Syms.Table(int(part)); tab != a.tab {
		a.tab, a.ids = tab, a.byID[tab]
	}
	if id < len(a.ids) && a.ids[id] != nil {
		return a.ids[id]
	}
	s := a.stat(a.tab.String(uint32(id)))
	if id >= len(a.ids) {
		a.ids = append(a.ids, make([]*InterfaceStat, id+1-len(a.ids))...)
		a.byID[a.tab] = a.ids
	}
	a.ids[id] = s
	return s
}

func (a *ifaceAgg) addNode(n *Node) {
	s := a.statOf(n)
	s.Calls++
	if n.HasLatency {
		s.Latency.Add(n.Latency)
		s.Total += n.Latency
		if n.Latency > s.Max {
			s.Max = n.Latency
		}
	}
	if n.HasCPU {
		s.SelfCPU += n.SelfCPU
	}
}

func (a *ifaceAgg) merge(o *ifaceAgg) {
	for iface, os := range o.byIface {
		s := a.stat(iface)
		s.Calls += os.Calls
		s.Latency.Merge(os.Latency)
		s.Total += os.Total
		if os.Max > s.Max {
			s.Max = os.Max
		}
		s.SelfCPU += os.SelfCPU
	}
}

func (a *ifaceAgg) finish() []InterfaceStat {
	out := make([]InterfaceStat, 0, len(a.byIface))
	for _, s := range a.byIface {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Interface < out[j].Interface })
	return out
}
