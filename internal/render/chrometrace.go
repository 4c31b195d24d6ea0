package render

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"causeway/internal/analysis"
	"causeway/internal/probe"
)

// chromeEvent is one entry of the Chrome trace-event JSON format
// (chrome://tracing, Perfetto). "X" complete events carry a start and a
// duration in microseconds; "M" metadata events name the pid/tid tracks.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTraceFile is the JSON-object container form of the format.
type chromeTraceFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromeTrace renders the DSCG as Chrome trace-event JSON: one "X"
// complete event per invocation node (so the span count equals the
// graph's node count), grouped into one track per process (pid) and
// logical thread (tid), with span durations taken from the
// probe-compensated latencies. Nodes without latency (causality-only
// runs, broken chains missing their closing records) become zero-duration
// spans; broken nodes carry cat "…,broken" and a reason in args so they
// stand out in the viewer.
func ChromeTrace(w io.Writer, g *analysis.DSCG) error {
	// The trace epoch is the earliest probe timestamp anywhere; spans are
	// placed relative to it (Chrome ts is not absolute time).
	epoch := probe.NoWallTime
	g.Walk(func(n *analysis.Node) {
		for _, r := range nodeRecords(n) {
			if r != nil && r.WallStart != probe.NoWallTime && (epoch == probe.NoWallTime || r.WallStart < epoch) {
				epoch = r.WallStart
			}
		}
	})

	// Stable integer pids per process name, in sorted order.
	procs := make(map[string]int)
	g.Walk(func(n *analysis.Node) {
		if r := spanRecord(n); r != nil {
			procs[n.Syms.Process(r)] = 0
		}
	})
	names := make([]string, 0, len(procs))
	for p := range procs {
		names = append(names, p)
	}
	sort.Strings(names)
	for i, p := range names {
		procs[p] = i + 1
	}

	var events []chromeEvent
	type track struct {
		pid int
		tid uint64
	}
	tracks := make(map[track]bool)
	for _, p := range names {
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: procs[p],
			Args: map[string]any{"name": p},
		})
	}

	g.Walk(func(n *analysis.Node) {
		r, op := spanRecord(n), n.Op()
		ev := chromeEvent{
			Name: op.Interface + "::" + op.Operation,
			Cat:  nodeCat(n),
			Ph:   "X",
			Args: map[string]any{
				"chain":     n.Chain.String(),
				"component": op.Component,
				"object":    op.Object,
			},
		}
		if n.Broken {
			ev.Args["broken"] = true
			ev.Args["broken_reason"] = n.BrokenReason
		}
		if r != nil {
			ev.Pid = procs[n.Syms.Process(r)]
			ev.Tid = r.Thread
			if r.WallStart != probe.NoWallTime && epoch != probe.NoWallTime {
				ev.Ts = float64(r.WallStart-epoch) / 1e3
			}
			tracks[track{ev.Pid, ev.Tid}] = true
		}
		if n.HasLatency {
			ev.Dur = float64(n.Latency.Nanoseconds()) / 1e3
		}
		events = append(events, ev)
	})

	// Name each thread track by its goroutine id, deterministically.
	keys := make([]track, 0, len(tracks))
	for k := range tracks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pid != keys[j].pid {
			return keys[i].pid < keys[j].pid
		}
		return keys[i].tid < keys[j].tid
	})
	for _, k := range keys {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: k.pid, Tid: k.tid,
			Args: map[string]any{"name": fmt.Sprintf("goroutine %d", k.tid)},
		})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeTraceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// spanRecord picks the record whose process/thread/timestamp define the
// node's span: the stub start on the caller side, else the skeleton
// records a stub-less (oneway callee) or broken node still has.
func spanRecord(n *analysis.Node) *probe.Compact {
	for _, r := range nodeRecords(n) {
		if r != nil {
			return r
		}
	}
	return nil
}

// nodeRecords lists the node's probe records in span-preference order.
func nodeRecords(n *analysis.Node) [4]*probe.Compact {
	return [4]*probe.Compact{n.StubStart, n.SkelStart, n.SkelEnd, n.StubEnd}
}

// nodeCat classifies the span for the viewer's category filter.
func nodeCat(n *analysis.Node) string {
	cat := "sync"
	switch {
	case n.Collocated:
		cat = "collocated"
	case n.Oneway:
		cat = "oneway"
	}
	if n.Broken {
		cat += ",broken"
	}
	return cat
}
