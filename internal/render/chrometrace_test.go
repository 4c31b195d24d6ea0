package render

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"causeway/internal/analysis"
	"causeway/internal/ftl"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/uuid"
)

// buildLatencyGraph makes a two-node sync chain with wall timestamps plus
// a second chain whose stub_end never arrived (a broken node).
func buildLatencyGraph(t *testing.T) *analysis.DSCG {
	t.Helper()
	epoch := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	chain, torn := uuid.UUID{0: 1}, uuid.UUID{0: 2}
	seq := uint64(0)
	mk := func(ev ftl.Event, opname string, startMs, endMs int) probe.Record {
		seq++
		return probe.Record{
			Kind: probe.KindEvent, Process: "p1", ProcType: "x86", Thread: 7,
			Chain: chain, Seq: seq, Event: ev, LatencyArmed: true,
			WallStart: epoch.Add(time.Duration(startMs) * time.Millisecond),
			WallEnd:   epoch.Add(time.Duration(endMs) * time.Millisecond),
			Op:        probe.OpID{Component: "comp", Interface: "Printer", Operation: opname, Object: "o"},
		}
	}
	db := logdb.NewStore()
	db.Insert(
		mk(ftl.StubStart, "print", 0, 1),
		mk(ftl.SkelStart, "print", 2, 3),
		mk(ftl.StubStart, "render", 4, 5),
		mk(ftl.SkelStart, "render", 6, 7),
		mk(ftl.SkelEnd, "render", 8, 9),
		mk(ftl.StubEnd, "render", 10, 11),
		mk(ftl.SkelEnd, "print", 12, 13),
		mk(ftl.StubEnd, "print", 14, 15),
		// A second chain that lost its closing records: broken.
		probe.Record{
			Kind: probe.KindEvent, Process: "p2", ProcType: "x86", Thread: 9,
			Chain: torn, Seq: 1, Event: ftl.StubStart, LatencyArmed: true,
			WallStart: epoch.Add(20 * time.Millisecond),
			WallEnd:   epoch.Add(21 * time.Millisecond),
			Op:        probe.OpID{Component: "comp", Interface: "Printer", Operation: "lost", Object: "o"},
		},
	)
	g := analysis.Reconstruct(db)
	g.ComputeLatency()
	return g
}

func TestChromeTrace(t *testing.T) {
	g := buildLatencyGraph(t)
	var buf bytes.Buffer
	if err := ChromeTrace(&buf, g); err != nil {
		t.Fatal(err)
	}

	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  uint64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("output is not valid trace-event JSON: %v\n%s", err, buf.String())
	}

	spans := 0
	brokenSpans := 0
	var rootDur float64
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
			if strings.Contains(ev.Cat, "broken") {
				brokenSpans++
				if b, _ := ev.Args["broken"].(bool); !b {
					t.Errorf("broken span %s lacks args.broken", ev.Name)
				}
			}
			if ev.Name == "Printer::print" {
				rootDur = ev.Dur
			}
		case "M":
			// metadata: process_name / thread_name
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if spans != g.Nodes() {
		t.Errorf("span count %d != DSCG node count %d", spans, g.Nodes())
	}
	if brokenSpans != 1 {
		t.Errorf("broken span count = %d, want 1", brokenSpans)
	}

	// The root's span duration is the compensated latency in microseconds.
	var root *analysis.Node
	g.Walk(func(n *analysis.Node) {
		if n.Op().Operation == "print" {
			root = n
		}
	})
	if root == nil || !root.HasLatency {
		t.Fatal("fixture root lost its latency")
	}
	want := float64(root.Latency.Nanoseconds()) / 1e3
	if rootDur != want {
		t.Errorf("root span dur = %v µs, want compensated latency %v µs", rootDur, want)
	}

	// Metadata names both processes.
	out := buf.String()
	for _, want := range []string{`"process_name"`, `"thread_name"`, `"p1"`, `"p2"`} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}

	// Rendering is deterministic — the property the golden test in
	// cmd/causectl builds on.
	var again bytes.Buffer
	if err := ChromeTrace(&again, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two renders of the same graph differ")
	}
}
