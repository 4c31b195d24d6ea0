package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"causeway"
	"causeway/internal/analysis"
	"causeway/internal/probe"
	"causeway/internal/topology"
	"causeway/internal/tracestore"
	"causeway/internal/uuid"
	"causeway/internal/workload"
)

// fixture builds one synthetic run three ways: per-process .ftlog files
// (the offline analyzer's native input), a populated trace store
// directory, and the expected DSCG from the original logs.
type fixture struct {
	logGlob  string
	storeDir string
	wantDSCG string
}

func buildFixture(t *testing.T) fixture {
	t.Helper()
	sys, err := workload.Generate(workload.Config{
		Calls: 250, Threads: 4, Processes: 3,
		Components: 8, Interfaces: 6, Methods: 15,
		OnewayPermille: 150, Seed: 17,
		Aspects: probe.AspectLatency,
	})
	if err != nil {
		t.Fatal(err)
	}

	logDir := t.TempDir()
	for proc, sink := range sys.Sinks {
		f, err := os.Create(filepath.Join(logDir, proc+".ftlog"))
		if err != nil {
			t.Fatal(err)
		}
		stream := probe.NewStreamSink(f)
		for _, r := range sink.Snapshot() {
			stream.Append(r)
		}
		if err := stream.Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	storeDir := filepath.Join(t.TempDir(), "store")
	ts, err := tracestore.Open(storeDir, tracestore.Options{Shards: 4, SegmentMaxBytes: 16384})
	if err != nil {
		t.Fatal(err)
	}
	for _, sink := range sys.Sinks {
		ts.Insert(sink.Snapshot()...)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}

	glob := filepath.Join(logDir, "*.ftlog")
	report, err := causeway.AnalyzeFiles(glob)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := report.WriteDSCG(&want); err != nil {
		t.Fatal(err)
	}
	return fixture{logGlob: glob, storeDir: storeDir, wantDSCG: want.String()}
}

// TestExportFeedsAnalyzer is the acceptance path: `causectl export` on a
// trace store produces a merged .ftlog whose analysis is byte-identical
// to analyzing the original per-process logs.
func TestExportFeedsAnalyzer(t *testing.T) {
	fx := buildFixture(t)
	out := filepath.Join(t.TempDir(), "merged.ftlog")
	var buf bytes.Buffer
	if err := run([]string{"-store", fx.storeDir, "export", out}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "exported merged record stream") {
		t.Fatalf("export output: %q", buf.String())
	}
	report, err := causeway.AnalyzeFiles(out)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := report.WriteDSCG(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != fx.wantDSCG {
		t.Fatal("DSCG from exported store diverges from per-process-log DSCG")
	}
}

func TestChainsListAndFilter(t *testing.T) {
	fx := buildFixture(t)
	var all bytes.Buffer
	if err := run([]string{"-store", fx.storeDir, "chains"}, &all); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(all.String(), "CHAIN") || !strings.Contains(all.String(), "chain(s)") {
		t.Fatalf("chains output: %q", all.String())
	}
	// A filter by a nonexistent interface matches nothing.
	var none bytes.Buffer
	if err := run([]string{"-store", fx.storeDir, "chains", "-iface", "NoSuchInterface"}, &none); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(none.String(), "0 chain(s)") {
		t.Fatalf("filtered chains output: %q", none.String())
	}
	// -logs mode answers the same query from raw per-process logs.
	var viaLogs bytes.Buffer
	if err := run([]string{"-logs", fx.logGlob, "chains"}, &viaLogs); err != nil {
		t.Fatal(err)
	}
	if viaLogs.String() != all.String() {
		t.Fatal("chains listing differs between -store and -logs over the same run")
	}
}

func TestShowChain(t *testing.T) {
	fx := buildFixture(t)
	var chains bytes.Buffer
	if err := run([]string{"-store", fx.storeDir, "chains"}, &chains); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(chains.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("not enough chains to pick one: %q", chains.String())
	}
	prefix := strings.Fields(lines[1])[0] // first data row's short chain id
	var show bytes.Buffer
	if err := run([]string{"-store", fx.storeDir, "show", prefix}, &show); err != nil {
		t.Fatal(err)
	}
	// The listing may print more than the tree header's eight characters
	// when eight are ambiguous.
	if !strings.Contains(show.String(), "chain "+prefix[:8]) {
		t.Fatalf("show output lacks chain header: %q", show.String())
	}
	if err := run([]string{"-store", fx.storeDir, "show", "ffffffffffff"}, &bytes.Buffer{}); err == nil {
		t.Fatal("show with unknown chain succeeded")
	}
}

// TestChainsPrintsResolvablePrefixes builds the collision that made
// TestShowChain flaky, on purpose: sequential generators in two processes
// mint UUIDs that agree on the leading counter and differ only in the seed
// field, so Short() names two chains at once. Every ID `chains` prints
// must be one `show` accepts.
func TestChainsPrintsResolvablePrefixes(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "store")
	ts, err := tracestore.Open(storeDir, tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	op := probe.OpID{Component: "c", Interface: "I", Operation: "m", Object: "o"}
	for _, seed := range []uint64{0x11, 0x12} {
		sink := &probe.MemorySink{}
		p, err := probe.New(probe.Config{
			Process: topology.Process{ID: "proc", Processor: topology.Processor{ID: "proc", Type: "x86"}},
			Aspects: probe.AspectLatency,
			Sink:    sink,
			Chains:  &uuid.SequentialGenerator{Seed: seed},
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx := p.StubStart(op, false)
		sctx := p.SkelStart(op, ctx.Wire, false)
		p.StubEnd(ctx, p.SkelEnd(sctx))
		p.Tunnel().Clear()
		ts.Insert(sink.Snapshot()...)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}

	if err := run([]string{"-store", storeDir, "show", "00000001"}, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("fixture does not collide on the short prefix: %v", err)
	}
	var chains bytes.Buffer
	if err := run([]string{"-store", storeDir, "chains"}, &chains); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(chains.String()), "\n")
	if len(lines) != 4 { // header, two chains, count
		t.Fatalf("chains output: %q", chains.String())
	}
	seen := map[string]bool{}
	for _, line := range lines[1:3] {
		prefix := strings.Fields(line)[0]
		if len(prefix) <= 8 || seen[prefix] {
			t.Fatalf("chains printed %q for a colliding chain:\n%s", prefix, chains.String())
		}
		seen[prefix] = true
		var show bytes.Buffer
		if err := run([]string{"-store", storeDir, "show", prefix}, &show); err != nil {
			t.Fatalf("show rejects a prefix chains printed: %v", err)
		}
	}
}

func TestTopInterfaces(t *testing.T) {
	fx := buildFixture(t)
	var top bytes.Buffer
	if err := run([]string{"-store", fx.storeDir, "-workers", "4", "top", "-n", "5", "-by", "p99"}, &top); err != nil {
		t.Fatal(err)
	}
	out := top.String()
	if !strings.Contains(out, "INTERFACE") || !strings.Contains(out, "P99") {
		t.Fatalf("top output: %q", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) < 2 {
		t.Fatalf("top printed no rows: %q", out)
	}
	if err := run([]string{"-store", fx.storeDir, "top", "-by", "bogus"}, &bytes.Buffer{}); err == nil {
		t.Fatal("top with bad -by succeeded")
	}
}

// TestExportChromeTrace: `export -format=chrome` writes valid Chrome
// trace-event JSON with exactly one span per DSCG node, and the export is
// deterministic (the golden property: same store, byte-identical trace).
func TestExportChromeTrace(t *testing.T) {
	fx := buildFixture(t)
	report, err := causeway.AnalyzeFiles(fx.logGlob)
	if err != nil {
		t.Fatal(err)
	}

	export := func(path string) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := run([]string{"-store", fx.storeDir, "-workers", "4", "export", "-format", "chrome", path}, &buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "exported Chrome trace") {
			t.Fatalf("export output: %q", buf.String())
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	dir := t.TempDir()
	raw := export(filepath.Join(dir, "a.json"))

	var tf struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Cat string  `json:"cat"`
			Dur float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("chrome export is not valid trace-event JSON: %v", err)
	}
	spans, timed := 0, 0
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			spans++
			if ev.Dur > 0 {
				timed++
			}
		}
	}
	if spans != report.Graph.Nodes() {
		t.Errorf("chrome trace has %d spans, DSCG has %d nodes", spans, report.Graph.Nodes())
	}
	if timed == 0 {
		t.Error("no span carries a duration; compensated latencies lost")
	}

	if again := export(filepath.Join(dir, "b.json")); !bytes.Equal(raw, again) {
		t.Error("two chrome exports of the same store differ")
	}

	if err := run([]string{"-store", fx.storeDir, "export", "-format", "bogus", filepath.Join(dir, "c")}, &bytes.Buffer{}); err == nil {
		t.Fatal("export with bad -format succeeded")
	}
}

// TestTopP99Values pins `top -by p99` to the offline digests: every
// printed P99 cell must equal InterfaceStat.P99() computed from the same
// records.
func TestTopP99Values(t *testing.T) {
	fx := buildFixture(t)
	report, err := causeway.AnalyzeFiles(fx.logGlob)
	if err != nil {
		t.Fatal(err)
	}
	stats := analysis.InterfaceStats(report.Graph, 1)
	want := make(map[string]string)
	for i := range stats {
		s := &stats[i]
		if s.Latency.Count() > 0 {
			want[s.Interface] = s.P99().Round(time.Microsecond).String()
		}
	}
	if len(want) == 0 {
		t.Fatal("fixture produced no timed interfaces")
	}

	var top bytes.Buffer
	if err := run([]string{"-store", fx.storeDir, "top", "-n", "0", "-by", "p99"}, &top); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, line := range strings.Split(strings.TrimSpace(top.String()), "\n")[1:] {
		fields := strings.Fields(line)
		if len(fields) != 7 {
			t.Fatalf("unexpected top row %q", line)
		}
		iface := fields[0]
		wantP99, ok := want[iface]
		if !ok {
			continue
		}
		if got := fields[4]; got != wantP99 {
			t.Errorf("interface %s: rendered P99 %s, want %s (offline InterfaceStat)", iface, got, wantP99)
		}
		checked++
	}
	if checked != len(want) {
		t.Errorf("checked %d of %d timed interfaces", checked, len(want))
	}
}

func TestArgumentValidation(t *testing.T) {
	if err := run([]string{"chains"}, &bytes.Buffer{}); err == nil {
		t.Fatal("missing -store/-logs accepted")
	}
	if err := run([]string{"-store", "x", "-logs", "y", "chains"}, &bytes.Buffer{}); err == nil {
		t.Fatal("both -store and -logs accepted")
	}
	if err := run([]string{"-logs", "nope*.ftlog"}, &bytes.Buffer{}); err == nil {
		t.Fatal("missing command accepted")
	}
	// -peers is a third source, exclusive with the other two and never
	// empty; the live subcommands name their collectors with their own flags.
	for _, args := range [][]string{
		{"-peers", "127.0.0.1:1", "-store", "x", "report"},
		{"-peers", "127.0.0.1:1", "-logs", "y", "report"},
		{"-peers", "", "report"},
		{"-peers", " , ", "report"},
		{"-peers", "127.0.0.1:1", "cluster", "status", "-peers", "127.0.0.1:1"},
		{"-peers", "127.0.0.1:1", "alerts", "-addr", "127.0.0.1:1"},
		{"-peers", "127.0.0.1:1", "chains", "-follow", "-addr", "127.0.0.1:1"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%q) accepted", args)
		} else if !strings.Contains(err.Error(), "-peers") {
			t.Errorf("run(%q) refused without naming -peers: %v", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed before refusing:\n%s", args, out.String())
		}
	}
	// A bad -format is refused before the output file is touched.
	dir := t.TempDir()
	glob := writeSampleLog(t, dir, false)
	victim := filepath.Join(dir, "p1.ftlog")
	before, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-logs", glob, "export", "-format", "json", victim}, &bytes.Buffer{}); err == nil {
		t.Fatal("export with bad -format succeeded")
	}
	if after, err := os.ReadFile(victim); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("bad -format changed the existing output file: %d → %d bytes (%v)", len(before), len(after), err)
	}
}
