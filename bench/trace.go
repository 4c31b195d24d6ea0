package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"causeway/internal/probe"
	"causeway/internal/transport"
)

// span is one timed crossing of a layer boundary, recorded by the harness's
// own wrappers around the calls into the layer. Per-record calls (a sink's
// Append) are never one span each: a batch of them is one span whose
// BusyNS is the summed time inside the calls and whose [Start, End] is the
// interval they fell in.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"` // 0 = no parent
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the tracer was made
	EndNS   int64  `json:"end_ns"`
	BusyNS  int64  `json:"busy_ns"` // time inside the layer; End-Start unless aggregated
	SelfNS  int64  `json:"self_ns"` // BusyNS minus the children's BusyNS; filled by finish
	Records int    `json:"n_records"`
}

// Span names: layer, a dot, the boundary call.
const (
	spanShipCall     = "telemetry.ship_call"
	spanOnlineAppend = "online.append"
	spanAsmAppend    = "streamrecon.append"
	spanTick         = "streamrecon.tick"
	spanInsert       = "tracestore.insert"
	spanFlush        = "tracestore.flush"
	spanQuery        = "query.iteration"
	spanOpen         = "tracestore.open"
	spanReconstruct  = "analysis.reconstruct"
	spanLatencyCPU   = "analysis.latency_cpu"
	spanIfaceStats   = "analysis.iface_stats"
	spanRender       = "render.dscg_text"
)

// The two server sinks, in the order the server calls them.
const (
	sinkOnline = iota
	sinkAsm
)

var sinkSpanNames = [2]string{spanOnlineAppend, spanAsmAppend}

// tracer keeps spans in memory until the workload ends.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	// conns holds, per shipping process, the sink time accumulated on its
	// connection since the last ship frame was closed off. Filled at
	// set-up and read-only afterwards, so the sink wrappers look it up
	// without a lock.
	conns map[string]*connAcc
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), conns: make(map[string]*connAcc)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a finished span and returns its id.
func (t *tracer) add(s span) int64 {
	t.mu.Lock()
	s.ID = int64(len(t.spans) + 1)
	if s.BusyNS == 0 {
		s.BusyNS = s.EndNS - s.StartNS
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// reserve allocates a span whose end is not known yet, so children can
// name it as parent; close fills it in.
func (t *tracer) reserve(name string, start int64) int64 {
	return t.add(span{Name: name, StartNS: start, EndNS: start})
}

func (t *tracer) close(id, end int64, records int) {
	t.mu.Lock()
	s := &t.spans[id-1]
	s.EndNS, s.BusyNS, s.Records = end, end-s.StartNS, records
	t.mu.Unlock()
}

// sinkAcc sums one sink's Append calls on one connection.
type sinkAcc struct {
	n           int
	busy        int64
	first, last int64
}

// connAcc is one shipper connection's server-side accumulator. Ship frames
// are acknowledged, so a connection has one batch in flight at a time and
// everything accumulated between two frames belongs to the first.
type connAcc struct {
	mu    sync.Mutex
	sinks [2]sinkAcc
}

// register makes the processes that share a shipper connection share an
// accumulator.
func (t *tracer) register(acc *connAcc, procs ...string) {
	for _, p := range procs {
		t.conns[p] = acc
	}
}

// drain emits what acc holds as children of parent and returns the record
// count of the batch.
func (t *tracer) drain(acc *connAcc, parent int64) int {
	acc.mu.Lock()
	sinks := acc.sinks
	acc.sinks = [2]sinkAcc{}
	acc.mu.Unlock()
	for i, s := range sinks {
		if s.n > 0 {
			t.add(span{Parent: parent, Name: sinkSpanNames[i], StartNS: s.first, EndNS: s.last, BusyNS: s.busy, Records: s.n})
		}
	}
	return sinks[sinkOnline].n
}

// drainAll emits whatever no ship-call wrapper collected: everything, for
// shippers the harness did not dial itself (causeway.Process owns its own).
func (t *tracer) drainAll() {
	done := make(map[*connAcc]bool)
	for _, acc := range t.conns {
		if !done[acc] {
			done[acc] = true
			t.drain(acc, 0)
		}
	}
}

// tracedSink times every Append of a server sink. Two clock reads per
// record is the price of the traced run; trace.overhead_ratio reports it.
type tracedSink struct {
	inner probe.Sink
	which int
	tr    *tracer
}

func (s *tracedSink) Append(r probe.Record) {
	start := s.tr.now()
	s.inner.Append(r)
	end := s.tr.now()
	acc := s.tr.conns[r.Process]
	if acc == nil {
		return
	}
	acc.mu.Lock()
	a := &acc.sinks[s.which]
	if a.n == 0 {
		a.first = start
	}
	a.n++
	a.busy += end - start
	a.last = end
	acc.mu.Unlock()
}

// shipClient wraps a shipper's transport and times every ship frame's
// Call: the round trip is what a producer's shipper waits for, so it is
// timed in every window. In the traced window the Call is also a span,
// parent of the sink time the frame caused on the server.
type shipClient struct {
	transport.Client
	rtt *rttLog
	tr  *tracer // nil in the untraced window
	acc *connAcc
}

// rttLog collects ship-frame round trips from the shippers' goroutines.
type rttLog struct {
	mu sync.Mutex
	ns []int64
}

func (c *shipClient) Call(req transport.Request) (transport.Reply, error) {
	if req.Operation != "ship" {
		return c.Client.Call(req)
	}
	start := time.Now()
	var id int64
	if c.tr != nil {
		id = c.tr.reserve(spanShipCall, c.tr.now())
	}
	rep, err := c.Client.Call(req)
	if c.tr != nil {
		c.tr.close(id, c.tr.now(), c.tr.drain(c.acc, id))
	}
	d := int64(time.Since(start))
	c.rtt.mu.Lock()
	c.rtt.ns = append(c.rtt.ns, d)
	c.rtt.mu.Unlock()
	return rep, err
}

// tracedStore times the assembler's inserts; the spans hang under the tick
// that caused them.
type tracedStore struct {
	inner interface{ Insert(...probe.Record) }
	tr    *tracer
	tick  int64 // id of the tick span in progress; set by the tick loop, which is the only caller
}

func (s *tracedStore) Insert(recs ...probe.Record) {
	start := s.tr.now()
	s.inner.Insert(recs...)
	s.tr.add(span{Parent: s.tick, Name: spanInsert, StartNS: start, EndNS: s.tr.now(), Records: len(recs)})
}

// finish computes self times: a span's busy time minus its children's.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		t.spans[i].SelfNS = t.spans[i].BusyNS
	}
	for i := range t.spans {
		if p := t.spans[i].Parent; p > 0 {
			t.spans[p-1].SelfNS -= t.spans[i].BusyNS
		}
	}
	return t.spans
}

// layerSum is one span name's total: self time, busy time, records, spans.
type layerSum struct {
	selfNS, busyNS int64
	records, spans int
}

// sumSpans totals the spans by name.
func sumSpans(spans []span) map[string]layerSum {
	out := make(map[string]layerSum)
	for _, s := range spans {
		l := out[s.Name]
		l.selfNS += s.SelfNS
		l.busyNS += s.BusyNS
		l.records += s.Records
		l.spans++
		out[s.Name] = l
	}
	return out
}

// writeTrace writes the spans as DIR/trace-<workload>.json.
func writeTrace(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}
