package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// OpKey identifies one interface method in the registry. It is the
// metrics-plane projection of a probe OpID: component and object instance
// are dropped so the cardinality stays bounded by the IDL, not the
// deployment.
type OpKey struct {
	Interface string
	Operation string
}

// OpStats is the per-operation RED family sampled at the four probes:
// Calls/Dispatches are the request rates seen by the stub and skeleton
// sides, Errors counts invocations that ultimately failed with a system
// exception, and the two histograms hold raw (uncompensated) stub
// round-trip and skeleton service durations. Compensated chain latency —
// the number that matches the offline analyzer — lives in the per-
// interface digests the online monitor feeds (Registry.ObserveChain).
type OpStats struct {
	Calls      Counter // stub_start activations (incl. collocated)
	Dispatches Counter // skel_start activations
	Errors     Counter // invocations failed with a SystemException
	StubTime   Histogram
	SkelTime   Histogram
}

// ORBStats counts invocation-layer failures and recoveries.
type ORBStats struct {
	Timeouts         Counter // attempts that exceeded the call deadline
	Retries          Counter // re-invocation attempts issued
	SystemExceptions Counter // invocations that ultimately failed
}

// NetStats counts the framed TCP transport's wire traffic. LateReplies
// counts replies discarded because their caller had abandoned the call
// (deadline) or they were duplicates.
type NetStats struct {
	BytesSent   Counter
	BytesRecv   Counter
	FramesSent  Counter
	FramesRecv  Counter
	LateReplies Counter
}

// Registry is one process's metrics plane: typed counter families for
// the ORB and transport, per-operation RED stats, per-interface
// compensated-latency digests, free-form named counters, and pluggable
// exposition sources (subsystems that keep their own atomics — the
// telemetry shipper, fault injectors, transport pools — and render
// themselves on scrape).
//
// The lookup maps are copy-on-write: readers (the probe hot path calls Op
// once per invocation) do one atomic load and a map probe — no lock, no
// contention with other readers or with scrapes. Inserting a new key
// copies the map under mu and publishes the copy; the key sets are bounded
// by the IDL, so copies are rare and small.
type Registry struct {
	ORB ORBStats
	Net NetStats

	ops    atomic.Pointer[map[OpKey]*OpStats]
	ifaces atomic.Pointer[map[string]*Histogram]
	named  atomic.Pointer[map[string]*Counter]

	// exemplars, once set, arms exemplar capture on every existing and
	// future histogram in the registry (see ArmExemplars).
	exemplars atomic.Bool

	mu      sync.Mutex // serializes map copies and source registration
	sources []source
}

type source struct {
	name string
	fn   func(io.Writer)
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	ops := make(map[OpKey]*OpStats)
	ifaces := make(map[string]*Histogram)
	named := make(map[string]*Counter)
	r.ops.Store(&ops)
	r.ifaces.Store(&ifaces)
	r.named.Store(&named)
	return r
}

// Op returns (creating on first use) the RED stats for key. The read
// path is one atomic load plus a map probe and never allocates or locks —
// probes call this once per invocation.
func (r *Registry) Op(key OpKey) *OpStats {
	if m := r.ops.Load(); m != nil {
		if s, ok := (*m)[key]; ok {
			return s
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var cur map[OpKey]*OpStats
	if m := r.ops.Load(); m != nil {
		cur = *m
		if s, ok := cur[key]; ok {
			return s
		}
	}
	next := make(map[OpKey]*OpStats, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	s := &OpStats{}
	if r.exemplars.Load() {
		s.StubTime.ArmExemplars()
		s.SkelTime.ArmExemplars()
	}
	next[key] = s
	r.ops.Store(&next)
	return s
}

// Iface returns (creating on first use) the compensated chain-latency
// histogram for an interface. The online monitor feeds it the same
// per-node latencies the offline analyzer aggregates into InterfaceStat.
func (r *Registry) Iface(name string) *Histogram {
	if m := r.ifaces.Load(); m != nil {
		if h, ok := (*m)[name]; ok {
			return h
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var cur map[string]*Histogram
	if m := r.ifaces.Load(); m != nil {
		cur = *m
		if h, ok := cur[name]; ok {
			return h
		}
	}
	next := make(map[string]*Histogram, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	h := &Histogram{}
	if r.exemplars.Load() {
		h.ArmExemplars()
	}
	next[name] = h
	r.ifaces.Store(&next)
	return h
}

// ObserveChain records one compensated invocation latency for iface.
func (r *Registry) ObserveChain(iface string, v time.Duration) {
	r.Iface(iface).Observe(v)
}

// ObserveChainEx records one compensated invocation latency for iface
// and, when exemplars are armed, stamps the observation's chain as the
// bucket exemplar (when is unix nanoseconds).
func (r *Registry) ObserveChainEx(iface string, v time.Duration, chain ChainID, when int64) {
	r.Iface(iface).ObserveEx(v, chain, when)
}

// ArmExemplars enables exemplar capture on every histogram in the
// registry, current and future. Idempotent.
func (r *Registry) ArmExemplars() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.exemplars.Store(true)
	if m := r.ops.Load(); m != nil {
		for _, s := range *m {
			s.StubTime.ArmExemplars()
			s.SkelTime.ArmExemplars()
		}
	}
	if m := r.ifaces.Load(); m != nil {
		for _, h := range *m {
			h.ArmExemplars()
		}
	}
}

// VisitOps calls fn for every registered operation. The snapshot is the
// copy-on-write map at call time; fn must not call back into Op.
func (r *Registry) VisitOps(fn func(OpKey, *OpStats)) {
	if m := r.ops.Load(); m != nil {
		for k, s := range *m {
			fn(k, s)
		}
	}
}

// Named returns (creating on first use) a free-form counter exposed
// under the given series name — the hook for loss-path counters that
// have no typed family (torn-tail recoveries, injected faults).
func (r *Registry) Named(name string) *Counter {
	if m := r.named.Load(); m != nil {
		if c, ok := (*m)[name]; ok {
			return c
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var cur map[string]*Counter
	if m := r.named.Load(); m != nil {
		cur = *m
		if c, ok := cur[name]; ok {
			return c
		}
	}
	next := make(map[string]*Counter, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	c := &Counter{}
	next[name] = c
	r.named.Store(&next)
	return c
}

// RegisterSource attaches an exposition source: fn is invoked on every
// scrape and appends its own series. Re-registering a name replaces the
// previous source, so rebuilding a subsystem does not duplicate series.
func (r *Registry) RegisterSource(name string, fn func(io.Writer)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.sources {
		if r.sources[i].name == name {
			r.sources[i].fn = fn
			return
		}
	}
	r.sources = append(r.sources, source{name: name, fn: fn})
}

// quantiles rendered per histogram; the three the paper's
// characterization tables use.
var quantiles = []struct {
	label string
	q     float64
}{
	{"0.5", 0.50},
	{"0.95", 0.95},
	{"0.99", 0.99},
}

// escapeLabel escapes a label value for the text exposition.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `\"`+"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// exemplarSuffix renders an OpenMetrics-style exemplar annotation for the
// given bucket, or "" when none was captured: ` # {chain_uuid="..."}
// <value_ns> <unix_ns>`. Consumers that only want the series value cut
// the line at " # " (collectd's fleet merge does).
func exemplarSuffix(h *Histogram, bucket int) string {
	e, ok := h.BucketExemplar(bucket)
	if !ok {
		return ""
	}
	return fmt.Sprintf(" # {chain_uuid=%q} %d %d", e.Chain.String(), int64(e.Value), e.When)
}

func WriteHistogram(w io.Writer, family, labels string, h *Histogram) {
	count := h.Count()
	fmt.Fprintf(w, "%s_count{%s} %d\n", family, labels, count)
	if count == 0 {
		return
	}
	fmt.Fprintf(w, "%s_sum_ns{%s} %d\n", family, labels, int64(h.Sum()))
	fmt.Fprintf(w, "%s_max_ns{%s} %d%s\n", family, labels, int64(h.Max()), exemplarSuffix(h, BucketOf(h.Max())))
	for _, q := range quantiles {
		i := h.quantileBucket(q.q)
		fmt.Fprintf(w, "%s_ns{%s,q=\"%s\"} %d%s\n", family, labels, q.label, int64(BucketValue(i)), exemplarSuffix(h, i))
	}
}

// WriteText renders the whole registry as a text exposition: one
// `name{labels} value` line per series, families sorted, durations in
// integer nanoseconds (so scrapes compare exactly against the offline
// analyzer's digests, no float round-trip).
func (r *Registry) WriteText(w io.Writer) {
	var (
		opKeys     []OpKey
		ifaceNames []string
		namedNames []string
	)
	if m := r.ops.Load(); m != nil {
		opKeys = make([]OpKey, 0, len(*m))
		for k := range *m {
			opKeys = append(opKeys, k)
		}
	}
	if m := r.ifaces.Load(); m != nil {
		ifaceNames = make([]string, 0, len(*m))
		for name := range *m {
			ifaceNames = append(ifaceNames, name)
		}
	}
	if m := r.named.Load(); m != nil {
		namedNames = make([]string, 0, len(*m))
		for name := range *m {
			namedNames = append(namedNames, name)
		}
	}
	r.mu.Lock()
	sources := append([]source(nil), r.sources...)
	r.mu.Unlock()

	sort.Slice(opKeys, func(i, j int) bool {
		if opKeys[i].Interface != opKeys[j].Interface {
			return opKeys[i].Interface < opKeys[j].Interface
		}
		return opKeys[i].Operation < opKeys[j].Operation
	})
	sort.Strings(ifaceNames)
	sort.Strings(namedNames)

	for _, k := range opKeys {
		s := r.Op(k)
		labels := fmt.Sprintf("iface=%q,op=%q", escapeLabel(k.Interface), escapeLabel(k.Operation))
		fmt.Fprintf(w, "causeway_op_calls_total{%s} %d\n", labels, s.Calls.Load())
		fmt.Fprintf(w, "causeway_op_dispatches_total{%s} %d\n", labels, s.Dispatches.Load())
		fmt.Fprintf(w, "causeway_op_errors_total{%s} %d\n", labels, s.Errors.Load())
		WriteHistogram(w, "causeway_op_stub", labels, &s.StubTime)
		WriteHistogram(w, "causeway_op_skel", labels, &s.SkelTime)
	}
	for _, name := range ifaceNames {
		labels := fmt.Sprintf("iface=%q", escapeLabel(name))
		WriteHistogram(w, "causeway_chain_latency", labels, r.Iface(name))
	}

	fmt.Fprintf(w, "causeway_orb_timeouts_total %d\n", r.ORB.Timeouts.Load())
	fmt.Fprintf(w, "causeway_orb_retries_total %d\n", r.ORB.Retries.Load())
	fmt.Fprintf(w, "causeway_orb_system_exceptions_total %d\n", r.ORB.SystemExceptions.Load())

	fmt.Fprintf(w, "causeway_net_bytes_sent_total %d\n", r.Net.BytesSent.Load())
	fmt.Fprintf(w, "causeway_net_bytes_recv_total %d\n", r.Net.BytesRecv.Load())
	fmt.Fprintf(w, "causeway_net_frames_sent_total %d\n", r.Net.FramesSent.Load())
	fmt.Fprintf(w, "causeway_net_frames_recv_total %d\n", r.Net.FramesRecv.Load())
	fmt.Fprintf(w, "causeway_net_late_replies_total %d\n", r.Net.LateReplies.Load())

	for _, name := range namedNames {
		fmt.Fprintf(w, "%s %d\n", name, r.Named(name).Load())
	}
	for _, src := range sources {
		src.fn(w)
	}
}
