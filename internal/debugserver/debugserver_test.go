package debugserver_test

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"causeway/internal/debugserver"
	"causeway/internal/metrics"
	"causeway/internal/online"
)

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return string(b)
}

func TestEndpoints(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Op(metrics.OpKey{Interface: "IGamma", Operation: "Run"}).Calls.Add(3)
	reg.ObserveChain("IGamma", 250*time.Microsecond)
	mon := online.NewMonitor(online.Config{})

	srv, err := debugserver.Start(debugserver.Config{
		Addr:         "127.0.0.1:0",
		Registry:     reg,
		Monitor:      mon,
		Process:      "proc-a",
		ProcType:     "generic",
		Aspects:      "causality+latency",
		Instrumented: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	if got := get(t, base+"/healthz"); !strings.Contains(got, "ok") {
		t.Errorf("/healthz = %q", got)
	}

	m := get(t, base+"/metrics")
	for _, want := range []string{
		`causeway_build_info{process="proc-a"`,
		"causeway_go_uptime_seconds",
		"causeway_go_goroutines",
		`causeway_op_calls_total{iface="IGamma",op="Run"} 3`,
		`causeway_chain_latency_count{iface="IGamma"} 1`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, m)
		}
	}

	st := get(t, base+"/statusz")
	for _, want := range []string{"process:      proc-a", "aspects:      causality+latency", "instrumented: true"} {
		if !strings.Contains(st, want) {
			t.Errorf("/statusz missing %q in:\n%s", want, st)
		}
	}

	if got := get(t, base+"/chainz"); !strings.Contains(got, "recent chain roots: 0") {
		t.Errorf("/chainz = %q", got)
	}

	if got := get(t, base+"/debug/pprof/"); !strings.Contains(got, "goroutine") {
		t.Errorf("/debug/pprof/ index missing goroutine profile: %q", got)
	}
}

func TestChainzWithoutMonitor(t *testing.T) {
	srv, err := debugserver.Start(debugserver.Config{Addr: "127.0.0.1:0", Process: "p"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := get(t, "http://"+srv.Addr()+"/chainz"); !strings.Contains(got, "no online monitor") {
		t.Errorf("/chainz = %q", got)
	}
	// /metrics must be non-empty even with no registry.
	if got := get(t, "http://"+srv.Addr()+"/metrics"); !strings.Contains(got, "causeway_build_info") {
		t.Errorf("/metrics = %q", got)
	}
}
