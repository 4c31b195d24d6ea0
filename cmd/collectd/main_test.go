package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"causeway"
	"causeway/internal/probe"
	"causeway/internal/sampling"
	"causeway/internal/streamrecon"
	"causeway/internal/telemetry"
	"causeway/internal/topology"
	"causeway/internal/tracestore"
	"causeway/internal/uuid"
)

// lockedBuffer lets the test read collectd's output while the daemon's
// goroutines are still writing it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// listenAddr polls the daemon's banner for the bound address.
func listenAddr(t *testing.T, out *lockedBuffer) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "collectd: listening on "); ok {
				return rest
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("daemon never announced its address; output:\n%s", out.String())
	return ""
}

func TestCollectdEndToEnd(t *testing.T) {
	dir := t.TempDir()
	merged := filepath.Join(dir, "merged.ftlog")
	out := &lockedBuffer{}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0",
			"-out", merged,
			"-dscg", "0",
			"-slow", "1ns", // everything is slow: exercises the live printer
			"-report", "20ms",
			"-roots",
		}, out, stop)
	}()
	addr := listenAddr(t, out)

	// Two shipping processes drive real probes at the daemon.
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("proc-%d", i)
		sh, err := telemetry.NewShipper(telemetry.ShipperConfig{
			Addr:          addr,
			Process:       topology.Process{ID: name, Processor: topology.Processor{ID: name, Type: "x86"}},
			FlushInterval: 2 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		p, err := probe.New(probe.Config{
			Process: topology.Process{ID: name, Processor: topology.Processor{ID: name, Type: "x86"}},
			Aspects: probe.AspectLatency,
			Sink:    sh,
			Chains:  &uuid.SequentialGenerator{Seed: uint64(i + 1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		op := probe.OpID{Component: "comp", Interface: "Demo", Operation: "ping", Object: "o"}
		for c := 0; c < 5; c++ {
			ctx := p.StubStart(op, false)
			sctx := p.SkelStart(op, ctx.Wire, false)
			p.StubEnd(ctx, p.SkelEnd(sctx))
			p.Tunnel().Clear()
		}
		if err := sh.Close(); err != nil {
			t.Fatal(err)
		}
		if st := sh.Stats(); st.Dropped != 0 {
			t.Fatalf("%s dropped %d records", name, st.Dropped)
		}
	}

	// Let at least one periodic report fire, then stop the daemon.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}

	got := out.String()
	for _, want := range []string{
		`process "proc-0" (x86) connected`,
		`process "proc-1" (x86) connected`,
		"live: SLOW Demo::ping",
		"live: root Demo::ping",
		"collectd: stop requested, draining",
		"drained 40 records", // 2 procs x 5 calls x 4 probe points
		"merged log written to " + merged,
		"Dynamic System Call Graph:",
		"Demo::ping",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q;\n%s", want, got)
		}
	}
	if !strings.Contains(got, "open chains") {
		t.Errorf("no periodic report fired;\n%s", got)
	}

	// The merged log is a valid analyzer input equal to the live view.
	report, err := causeway.AnalyzeFiles(merged)
	if err != nil {
		t.Fatal(err)
	}
	if report.Stats.Records != 40 {
		t.Fatalf("merged log has %d records, want 40", report.Stats.Records)
	}
	roots := 0
	for _, tr := range report.Graph.Trees {
		roots += len(tr.Roots)
	}
	if roots != 10 {
		t.Fatalf("merged log reconstructs %d roots, want 10", roots)
	}
}

// TestCollectdStoreMode runs the daemon against an on-disk trace store and
// checks the new drain artifacts: per-peer shipper accounting, the store
// summary line, and that the directory is queryable afterwards.
func TestCollectdStoreMode(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "trace")
	out := &lockedBuffer{}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0",
			"-store", storeDir,
			"-retain", "1h", // sweeps run but nothing is old enough to drop
			"-dscg", "0",
			"-workers", "4",
			"-report", "20ms",
		}, out, stop)
	}()
	addr := listenAddr(t, out)

	proc := topology.Process{ID: "disk-proc", Processor: topology.Processor{ID: "disk-proc", Type: "x86"}}
	sh, err := telemetry.NewShipper(telemetry.ShipperConfig{
		Addr: addr, Process: proc, FlushInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := probe.New(probe.Config{
		Process: proc,
		Aspects: probe.AspectLatency,
		Sink:    sh,
		Chains:  &uuid.SequentialGenerator{Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	op := probe.OpID{Component: "comp", Interface: "Disk", Operation: "put", Object: "o"}
	for c := 0; c < 6; c++ {
		ctx := p.StubStart(op, false)
		sctx := p.SkelStart(op, ctx.Wire, false)
		p.StubEnd(ctx, p.SkelEnd(sctx))
		p.Tunnel().Clear()
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}

	time.Sleep(50 * time.Millisecond)
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}

	got := out.String()
	for _, want := range []string{
		"drained 24 records", // 6 calls x 4 probe points
		"peer disk-proc (x86): ingested 24 records",
		"shipper appended=24 shipped=24 dropped=0",
		"trace store at " + storeDir + " holds 24 records",
		"Dynamic System Call Graph:",
		"Disk::put",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q;\n%s", want, got)
		}
	}

	// The directory the daemon left behind reopens as a valid store.
	ts, err := tracestore.Open(storeDir, tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	if ts.Len() != 24 {
		t.Fatalf("reopened store holds %d records, want 24", ts.Len())
	}
	if chains := ts.Chains(); len(chains) != 6 {
		t.Fatalf("reopened store holds %d chains, want 6", len(chains))
	}
}

func TestCollectdDuration(t *testing.T) {
	out := &lockedBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-duration", "30ms", "-dscg", "-1"}, out, nil)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon ignored -duration")
	}
	if got := out.String(); !strings.Contains(got, "duration elapsed") {
		t.Fatalf("output:\n%s", got)
	}
}

// TestCollectdDrainOnce: when two shutdown triggers fire — -duration
// expiry and a stop/SIGINT, in either order — the daemon must drain
// exactly once: one drain banner, one DSCG print, no double-close of the
// server or the store.
func TestCollectdDrainOnce(t *testing.T) {
	countDrains := func(s string) (int, int) {
		return strings.Count(s, ", draining"), strings.Count(s, "Dynamic System Call Graph:")
	}

	t.Run("duration then stop", func(t *testing.T) {
		out := &lockedBuffer{}
		stop := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			done <- run([]string{"-listen", "127.0.0.1:0", "-duration", "20ms", "-dscg", "0"}, out, stop)
		}()
		// Wait until the duration-triggered drain is underway, then fire
		// the second trigger into the middle of it.
		deadline := time.Now().Add(5 * time.Second)
		for !strings.Contains(out.String(), "duration elapsed, draining") {
			if time.Now().After(deadline) {
				t.Fatalf("duration never triggered a drain; output:\n%s", out.String())
			}
			time.Sleep(time.Millisecond)
		}
		close(stop)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("daemon hung")
		}
		banners, graphs := countDrains(out.String())
		if banners != 1 || graphs != 1 {
			t.Fatalf("drain ran %d time(s), DSCG printed %d time(s); want exactly 1 each:\n%s",
				banners, graphs, out.String())
		}
	})

	t.Run("stop then duration", func(t *testing.T) {
		out := &lockedBuffer{}
		stop := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			done <- run([]string{"-listen", "127.0.0.1:0", "-duration", "30ms", "-dscg", "0"}, out, stop)
		}()
		listenAddr(t, out)
		close(stop)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("daemon hung")
		}
		if !strings.Contains(out.String(), "stop requested, draining") {
			t.Fatalf("stop trigger lost:\n%s", out.String())
		}
		// The 30ms duration timer fires while (or after) the stop-triggered
		// drain runs; give it time to misbehave, then assert it didn't.
		time.Sleep(60 * time.Millisecond)
		banners, graphs := countDrains(out.String())
		if banners != 1 || graphs != 1 {
			t.Fatalf("drain ran %d time(s), DSCG printed %d time(s); want exactly 1 each:\n%s",
				banners, graphs, out.String())
		}
	})
}

// Each is refused before the daemon binds or starts anything: a report
// period that is not positive would panic the reporter's ticker (in ingest
// mode after the listener is bound), or the aggregator's.
func TestCollectdRejectsArgs(t *testing.T) {
	for _, args := range [][]string{
		{"positional"},
		{"-listen", "127.0.0.1:0", "-report", "0"},
		{"-aggregate", "-peers", "127.0.0.1:1", "-report", "-1s"},
	} {
		if err := run(args, &bytes.Buffer{}, nil); err == nil {
			t.Errorf("run(%q) accepted", args)
		}
	}
}

// The chain table is ticked on its quiescence, not on -report: with a report
// period of an hour, chains that completed leave the table while the daemon
// runs, and none is left for the drain.
func TestCollectdTicksOnQuiescence(t *testing.T) {
	out := &lockedBuffer{}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-report", "1h", "-quiesce", "20ms", "-dscg", "-1", "-debug", "127.0.0.1:0"}, out, stop)
	}()
	addr := listenAddr(t, out)
	dbgAddr := bannerSuffix(t, out, "collectd: debug server on ")
	proc := topology.Process{ID: "ticked", Processor: topology.Processor{ID: "ticked", Type: "x86"}}
	sh, err := telemetry.NewShipper(telemetry.ShipperConfig{Addr: addr, Process: proc, FlushInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	p, err := probe.New(probe.Config{Process: proc, Sink: sh, Chains: &uuid.SequentialGenerator{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	op := probe.OpID{Component: "comp", Interface: "Tick", Operation: "ping", Object: "o"}
	for c := 0; c < 5; c++ {
		ctx := p.StubStart(op, false)
		p.StubEnd(ctx, p.SkelEnd(p.SkelStart(op, ctx.Wire, false)))
		p.Tunnel().Clear()
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	awaitFeed(t, out, dbgAddr, 5)
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"collectd: streaming drain evicted 0 open chain(s)",
		"collectd: assembler ledger: appended=20 persisted=20 discarded=0 buffered=0 (balanced)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q;\n%s", want, got)
		}
	}
}

// TestCollectdStreamMode exercises the streaming pipeline end to end:
// records flow server → journal → assembler → on-disk store as chains
// complete,
// /feedz serves the eviction feed live, the rate operation serves the
// adaptive head-sampling rate to shippers, and the drain proves the
// assembler ledger and the per-peer shipper ledger both balance.
func TestCollectdStreamMode(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "trace")
	out := &lockedBuffer{}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0",
			"-store", storeDir,
			"-quiesce", "30ms",
			"-stale", "10s",
			"-adaptive",
			"-dscg", "0",
			"-report", "20ms",
			"-debug", "127.0.0.1:0",
		}, out, stop)
	}()
	addr := listenAddr(t, out)
	dbgAddr := bannerSuffix(t, out, "collectd: debug server on ")

	// The shipper polls the daemon's sampling rate; adaptive mode starts
	// at 1 and stays there while the plane is healthy.
	target := sampling.NewControlled(0.123)
	proc := topology.Process{ID: "stream-proc", Processor: topology.Processor{ID: "stream-proc", Type: "x86"}}
	sh, err := telemetry.NewShipper(telemetry.ShipperConfig{
		Addr: addr, Process: proc, FlushInterval: 2 * time.Millisecond,
		RateTarget: target, RatePollInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := probe.New(probe.Config{
		Process: proc,
		Aspects: probe.AspectLatency,
		Sink:    sh,
		Chains:  &uuid.SequentialGenerator{Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	op := probe.OpID{Component: "comp", Interface: "Stream", Operation: "flow", Object: "o"}
	for c := 0; c < 6; c++ {
		ctx := p.StubStart(op, false)
		sctx := p.SkelStart(op, ctx.Wire, false)
		p.StubEnd(ctx, p.SkelEnd(sctx))
		p.Tunnel().Clear()
	}

	// The live feed sees all 6 chains complete while the daemon runs.
	page := awaitFeed(t, out, dbgAddr, 6)
	if len(page.Completions) != 6 {
		t.Fatalf("feed window holds %d completions, want 6", len(page.Completions))
	}
	for _, e := range page.Completions {
		if e.Reason != "complete" || !e.Persisted || e.Broken || e.Op != "Stream::flow" {
			t.Fatalf("completion %+v", e)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); target.Rate() != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("shipper never learned the served rate (at %g)", target.Rate())
		}
		time.Sleep(time.Millisecond)
	}

	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}

	got := out.String()
	for _, want := range []string{
		"collectd: streaming assembly on (quiesce 30ms, stale 10s)",
		"collectd: serving head-sampling rate 1 (adaptive)",
		"evicted (",
		"collectd: streaming drain evicted 0 open chain(s)",
		"collectd: assembler ledger: appended=24 persisted=24 discarded=0 buffered=0 (balanced)",
		"drained 24 records",
		"peer stream-proc (x86): ingested 24 records",
		"shipper appended=24 shipped=24 dropped=0",
		"trace store at " + storeDir + " holds 24 records",
		"Dynamic System Call Graph:",
		"Stream::flow",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q;\n%s", want, got)
		}
	}

	// The store the streaming path left behind is the same artifact batch
	// mode produces: reopenable, fully populated.
	ts, err := tracestore.Open(storeDir, tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	if ts.Len() != 24 {
		t.Fatalf("reopened store holds %d records, want 24", ts.Len())
	}
	if left, _ := filepath.Glob(filepath.Join(storeDir, "journal", "*")); len(left) != 0 {
		t.Fatalf("journal holds %v after a clean drain", left)
	}
}

// awaitFeed polls the daemon's /feedz until n chains have left its chain
// table, and returns the page that showed it.
func awaitFeed(t *testing.T, out *lockedBuffer, dbgAddr string, n uint64) streamrecon.FeedPage {
	t.Helper()
	var page streamrecon.FeedPage
	deadline := time.Now().Add(10 * time.Second)
	for page.Cursor < n {
		if time.Now().After(deadline) {
			t.Fatalf("feed cursor stuck at %d, want %d; output:\n%s", page.Cursor, n, out.String())
		}
		time.Sleep(5 * time.Millisecond)
		resp, err := http.Get("http://" + dbgAddr + "/feedz")
		if err != nil {
			continue
		}
		page = streamrecon.FeedPage{}
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	return page
}

// bannerSuffix polls the daemon output for a line with the given prefix
// and returns the rest of that line.
func bannerSuffix(t *testing.T, out *lockedBuffer, prefix string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				return rest
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("daemon never printed %q; output:\n%s", prefix, out.String())
	return ""
}
