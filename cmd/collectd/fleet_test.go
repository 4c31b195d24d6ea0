package main

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"causeway/internal/debugserver"
	"causeway/internal/metrics"
	"causeway/internal/telemetry"
	"causeway/internal/topology"
)

func TestIngestRate(t *testing.T) {
	cases := []struct {
		cur, last uint64
		elapsed   time.Duration
		want      float64
	}{
		{100, 0, time.Second, 100},
		{150, 100, 500 * time.Millisecond, 100},
		{100, 100, time.Second, 0}, // no progress
		{50, 100, time.Second, 0},  // counter went backwards: report 0, not negative
		{100, 0, 0, 0},             // no time elapsed: no division artifact
		{100, 0, -time.Second, 0},  // clock hiccup
		{0, 0, 5 * time.Second, 0}, // first tick with nothing ingested
	}
	for _, c := range cases {
		if got := ingestRate(c.cur, c.last, c.elapsed); got != c.want {
			t.Errorf("ingestRate(%d, %d, %v) = %v, want %v", c.cur, c.last, c.elapsed, got, c.want)
		}
	}
}

func TestMergeExposition(t *testing.T) {
	merged := make(map[string]int64)
	maxes := make(map[string]bool)
	peerA := `causeway_op_calls_total{iface="I",op="m"} 3
causeway_op_stub_max_ns{iface="I",op="m"} 900
causeway_op_stub_ns{iface="I",op="m",q="0.5"} 450
causeway_go_goroutines 12
`
	peerB := `causeway_op_calls_total{iface="I",op="m"} 4
causeway_op_stub_max_ns{iface="I",op="m"} 700
`
	for _, exp := range []string{peerA, peerB} {
		if err := mergeExposition(merged, maxes, strings.NewReader(exp)); err != nil {
			t.Fatal(err)
		}
	}
	if got := merged[`causeway_op_calls_total{iface="I",op="m"}`]; got != 7 {
		t.Errorf("calls merged to %d, want 7 (sum)", got)
	}
	if got := merged[`causeway_op_stub_max_ns{iface="I",op="m"}`]; got != 900 {
		t.Errorf("max merged to %d, want 900 (max)", got)
	}
	if _, ok := merged[`causeway_op_stub_ns{iface="I",op="m",q="0.5"}`]; ok {
		t.Error("quantile series merged; summing quantiles is meaningless")
	}
	if _, ok := merged["causeway_go_goroutines"]; ok {
		t.Error("gauge series merged")
	}
}

// TestCollectdFleetScrape runs the daemon with -debug, connects a peer
// that advertises its own debug server in the handshake, and checks the
// peer's counters show up under the fleet_ prefix on the daemon's
// /metrics.
func TestCollectdFleetScrape(t *testing.T) {
	// The peer's introspection plane: a registry with a known counter.
	reg := metrics.NewRegistry()
	reg.Op(metrics.OpKey{Interface: "IFleet", Operation: "Go"}).Calls.Add(7)
	peerDbg, err := debugserver.Start(debugserver.Config{Addr: "127.0.0.1:0", Registry: reg, Process: "peer-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer peerDbg.Close()

	out := &lockedBuffer{}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0",
			"-debug", "127.0.0.1:0",
			"-dscg", "-1",
			"-report", "20ms",
		}, out, stop)
	}()
	defer func() {
		close(stop)
		if err := <-done; err != nil {
			t.Fatalf("run: %v", err)
		}
	}()
	addr := listenAddr(t, out)

	// Handshake advertising the peer's debug address.
	sh, err := telemetry.NewShipper(telemetry.ShipperConfig{
		Addr:      addr,
		Process:   topology.Process{ID: "peer-1", Processor: topology.Processor{ID: "peer-1", Type: "x86"}},
		DebugAddr: peerDbg.Addr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	// Find the daemon's own debug address in the banner.
	var dbgAddr string
	deadline := time.Now().Add(5 * time.Second)
	for dbgAddr == "" && time.Now().Before(deadline) {
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "collectd: debug server on "); ok {
				dbgAddr = rest
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if dbgAddr == "" {
		t.Fatalf("daemon never announced its debug server; output:\n%s", out.String())
	}

	// Poll the daemon's /metrics until a scrape tick merged the peer. The
	// node's own conservation verdict rides the same exposition.
	want := `fleet_causeway_op_calls_total{iface="IFleet",op="Go"} 7`
	const balanced = "causeway_cluster_ledger_balanced 1\n"
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + dbgAddr + "/metrics")
		if err == nil {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if strings.Contains(string(b), want) {
				if !strings.Contains(string(b), balanced) {
					t.Fatalf("daemon /metrics lacks %q:\n%s", balanced, b)
				}
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Get("http://" + dbgAddr + "/metrics")
	if err != nil {
		t.Fatalf("final scrape of daemon /metrics: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	t.Fatalf("daemon /metrics never grew %q:\n%s", want, b)
}
