package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"causeway/internal/ftl"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/uuid"
)

// writeSampleLog writes one process's log holding a single call: CPU-armed,
// or latency-armed with wall windows 10µs apart. It returns the log's glob.
func writeSampleLog(t *testing.T, dir string, latency bool) string {
	t.Helper()
	chain := uuid.UUID{0: 1}
	db := logdb.NewStore()
	epoch := time.Unix(1_000_000, 0)
	seq := uint64(0)
	mk := func(ev ftl.Event, opname string) probe.Record {
		seq++
		r := probe.Record{
			Kind: probe.KindEvent, Process: "p1", ProcType: "x86", Thread: 2,
			Chain: chain, Seq: seq, Event: ev,
			Op: probe.OpID{Component: "c", Interface: "I", Operation: opname, Object: "o"},
		}
		if latency {
			r.LatencyArmed = true
			r.WallStart = epoch.Add(time.Duration(seq) * 10 * time.Microsecond)
			r.WallEnd = r.WallStart.Add(time.Microsecond)
		} else {
			r.CPUArmed = true
		}
		return r
	}
	db.Insert(
		mk(ftl.StubStart, "f"), mk(ftl.SkelStart, "f"),
		mk(ftl.SkelEnd, "f"), mk(ftl.StubEnd, "f"),
	)
	if err := logdb.SaveFile(db, filepath.Join(dir, "p1.ftlog")); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, "*.ftlog")
}

// report runs `causectl -logs glob report args...` and returns its output.
func report(t *testing.T, glob string, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(append([]string{"-logs", glob, "report"}, args...), &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestReportStats(t *testing.T) {
	got := report(t, writeSampleLog(t, t.TempDir(), false), "-stats")
	if !strings.Contains(got, "1 calls") || !strings.Contains(got, "0 anomalies") {
		t.Fatalf("output: %s", got)
	}
	if strings.Contains(got, "Dynamic System Call Graph") {
		t.Fatal("-stats printed the graph")
	}
}

func TestReportDSCGAndLatency(t *testing.T) {
	got := report(t, writeSampleLog(t, t.TempDir(), false), "-latency")
	if !strings.Contains(got, "I::f(o)") {
		t.Fatalf("DSCG missing: %s", got)
	}
	if !strings.Contains(got, "per-operation latency") {
		t.Fatalf("latency table missing: %s", got)
	}
}

func TestReportCCSGXML(t *testing.T) {
	got := report(t, writeSampleLog(t, t.TempDir(), false), "-ccsgxml")
	if !strings.Contains(got, "<CCSG>") {
		t.Fatalf("no CCSG XML: %s", got)
	}
}

func TestReportTopology(t *testing.T) {
	got := report(t, writeSampleLog(t, t.TempDir(), false), "-topology")
	if !strings.Contains(got, "<client>") || !strings.Contains(got, "calls=1") {
		t.Fatalf("topology output:\n%s", got)
	}
}

func TestReportSeqChart(t *testing.T) {
	got := report(t, writeSampleLog(t, t.TempDir(), true), "-seqchart")
	for _, want := range []string{
		"process p1 (local clock)",
		"thr=2      stub_start I::f(o)  chain=01000000#1",
		"+30µs         thr=2      stub_end   I::f(o)  chain=01000000#4",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("sequence chart lacks %q:\n%s", want, got)
		}
	}
}

// TestReportCountsTornTails: a log whose only frame is torn adds no
// records and one warning to the stats line.
func TestReportCountsTornTails(t *testing.T) {
	dir := t.TempDir()
	glob := writeSampleLog(t, dir, false)
	b, err := os.ReadFile(filepath.Join(dir, "p1.ftlog"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "p2.ftlog"), b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	got := report(t, glob, "-stats")
	if !strings.Contains(got, logdb.TornTails(1)) || !strings.Contains(got, ": 4 records, 1 calls,") || !strings.Contains(got, ", 1 warnings\n") {
		t.Fatalf("torn tail not counted:\n%s", got)
	}
}

func TestReportUsageErrors(t *testing.T) {
	glob := writeSampleLog(t, t.TempDir(), false)
	for _, args := range [][]string{
		{"report"},                              // no -logs or -store
		{"-logs", glob, "report", "-bogusflag"}, // unknown flag
		{"-logs", glob, "report", glob},         // stray argument
		{"-logs", glob, "report", "-ccsg", "-ccsgxml", "-topology"},
		{"-logs", glob, "report", "-stats", "-latency"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("%q accepted:\n%s", args, out.String())
		} else if out.Len() != 0 {
			t.Errorf("%q printed before refusing:\n%s", args, out.String())
		}
	}
}

// TestReportStoreMatchesLogs: every report mode prints the same over a
// trace store as over the merged .ftlog that store exports, apart from
// the time the analysis took.
func TestReportStoreMatchesLogs(t *testing.T) {
	fx := buildFixture(t)
	merged := filepath.Join(t.TempDir(), "merged.ftlog")
	if err := run([]string{"-store", fx.storeDir, "export", merged}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	duration := regexp.MustCompile(`^analyzed in [^:]*:`)
	for _, mode := range [][]string{
		{"-stats"}, {"-latency"}, {"-ccsg"}, {"-ccsgxml"},
		{"-seqchart"}, {"-topology"}, {"-dscg", "20", "-depth", "2"},
	} {
		var viaStore, viaLogs bytes.Buffer
		if err := run(append([]string{"-store", fx.storeDir, "report"}, mode...), &viaStore); err != nil {
			t.Fatal(err)
		}
		if err := run(append([]string{"-logs", merged, "report"}, mode...), &viaLogs); err != nil {
			t.Fatal(err)
		}
		a := duration.ReplaceAllString(viaStore.String(), "")
		b := duration.ReplaceAllString(viaLogs.String(), "")
		if a != b {
			t.Errorf("report %v differs between -store and -logs of its export", mode)
		}
		if !strings.Contains(a, " calls, ") {
			t.Errorf("report %v printed no stats line:\n%s", mode, a)
		}
	}
}
