// End-to-end acceptance of the failure path: a hung server makes the
// client's call fail with a TIMEOUT system exception within a bounded
// multiple of the deadline, and the partial probe trace the failure leaves
// behind reconstructs into a DSCG that reports the chain as a broken-chain
// warning — never an anomaly, never a panic, never a dropped node.
package causeway_test

import (
	"errors"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"causeway"
	"causeway/internal/benchgen/instrecho"
	"causeway/internal/faultinject"
	"causeway/internal/orb"
)

// hungEcho blocks every Echo until released.
type hungEcho struct{ release chan struct{} }

func (h hungEcho) Echo(payload string) (string, error) {
	<-h.release
	return payload, nil
}
func (hungEcho) Sum([]int32) (int32, error) { return 0, nil }
func (hungEcho) Fire(string) error          { return nil }

func TestHungServerTimeoutYieldsBrokenChainWarning(t *testing.T) {
	const deadline = 100 * time.Millisecond

	server, err := causeway.NewProcess(causeway.ProcessConfig{
		Name: "server", Instrumented: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	// Shutdown waits for in-flight dispatches, so the servant must be
	// released before the deferred Close runs (defers run LIFO).
	defer server.Close()
	defer unblock()
	if err := instrecho.RegisterEcho(server.ORB, "svc", "svc-comp", hungEcho{release}); err != nil {
		t.Fatal(err)
	}
	ep, err := server.ORB.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	client, err := causeway.NewProcess(causeway.ProcessConfig{
		Name: "client", Instrumented: true, CallTimeout: deadline,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	stub := instrecho.NewEchoStub(client.ORB.RefTo(ep, "svc", "Echo", "svc-comp"))
	begin := time.Now()
	_, err = stub.Echo("stuck")
	elapsed := time.Since(begin)
	if err == nil {
		t.Fatal("call against a hung server succeeded")
	}
	var sysErr *orb.SystemException
	if !errors.As(err, &sysErr) || sysErr.Code != orb.CodeTimeout {
		t.Fatalf("err = %v, want SystemException TIMEOUT", err)
	}
	if elapsed > 2*deadline {
		t.Fatalf("timed out after %v, want under %v", elapsed, 2*deadline)
	}

	// Release the servant and let its trailing probes land, then analyze
	// the merged trace: the abandoned invocation must surface as a broken
	// chain (a warning) and stay in the graph, with no anomalies.
	unblock()
	deadlineAt := time.Now().Add(5 * time.Second)
	var report *causeway.Report
	for {
		report = causeway.AnalyzeProcesses(server, client)
		if report.Graph.Nodes() > 0 && len(report.Graph.Broken) > 0 {
			break
		}
		if time.Now().After(deadlineAt) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if report.Warnings == 0 || len(report.Graph.Broken) == 0 {
		t.Fatalf("broken chain not reported as warning: warnings=%d broken=%v anomalies=%v",
			report.Warnings, report.Graph.Broken, report.Graph.Anomalies)
	}
	if len(report.Graph.Anomalies) != 0 {
		t.Fatalf("failure remnants misclassified as anomalies: %v", report.Graph.Anomalies)
	}
	found := false
	report.Graph.Walk(func(n *causeway.Node) {
		if n.Broken && n.Op().Operation == "echo" {
			found = true
		}
	})
	if !found {
		t.Fatal("abandoned echo invocation missing its Broken mark")
	}
}

// faultedRun drives one seeded fault-injected deployment: a sequential
// client fires calls at a healthy server through a client wrapper that
// deterministically drops some of them, then the merged trace is analyzed.
func faultedRun(t *testing.T, seed int64, calls int) (*causeway.Report, faultinject.Stats) {
	t.Helper()
	server, err := causeway.NewProcess(causeway.ProcessConfig{
		Name: "server", Instrumented: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	if err := instrecho.RegisterEcho(server.ORB, "svc", "svc-comp", echoOK{}); err != nil {
		t.Fatal(err)
	}
	ep, err := server.ORB.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	inj := faultinject.New(faultinject.Plan{Seed: seed, DropProb: 0.3})
	client, err := causeway.NewProcess(causeway.ProcessConfig{
		Name: "client", Instrumented: true,
		CallTimeout: 50 * time.Millisecond,
		WrapClient:  inj.WrapClient,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	stub := instrecho.NewEchoStub(client.ORB.RefTo(ep, "svc", "Echo", "svc-comp"))
	failures := 0
	for i := 0; i < calls; i++ {
		if _, err := stub.Echo("x"); err != nil {
			failures++
		}
		client.NewChain()
	}
	stats := inj.Stats()
	if int(stats.Drops) != failures {
		t.Fatalf("injected %d drops but saw %d call failures", stats.Drops, failures)
	}
	return causeway.AnalyzeProcesses(server, client), stats
}

// matrixSeed lets CI's seed matrix pick the schedule; defaults otherwise.
func matrixSeed(def int64) int64 {
	if s := os.Getenv("FAULT_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return def
}

// TestFaultInjectionDeterministicWarnings: the same seed must replay the
// same fault schedule and therefore the same analyzer warning count across
// two full runs, and a different seed must be allowed to differ.
func TestFaultInjectionDeterministicWarnings(t *testing.T) {
	const calls = 40
	seed := matrixSeed(42)
	r1, s1 := faultedRun(t, seed, calls)
	r2, s2 := faultedRun(t, seed, calls)
	if s1 != s2 {
		t.Fatalf("same seed, different schedules: %+v vs %+v", s1, s2)
	}
	if s1.Drops == 0 {
		t.Fatal("plan injected no drops; test proves nothing")
	}
	if r1.Warnings != r2.Warnings {
		t.Fatalf("same seed, different warning counts: %d vs %d", r1.Warnings, r2.Warnings)
	}
	if r1.Warnings != int(s1.Drops) {
		t.Fatalf("warnings = %d, want one per dropped call (%d)", r1.Warnings, s1.Drops)
	}
	if len(r1.Graph.Anomalies) != 0 {
		t.Fatalf("dropped calls misclassified as anomalies: %v", r1.Graph.Anomalies)
	}
}
