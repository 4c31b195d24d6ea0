package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"causeway"
	"causeway/internal/alerting"
	"causeway/internal/benchgen/instrecho"
	"causeway/internal/logdb"
	"causeway/internal/metrics"
	"causeway/internal/probe"
	"causeway/internal/sampling"
	"causeway/internal/streamrecon"
	"causeway/internal/telemetry"
)

// laggyEcho induces the latency regression: every call spins well past
// the rule's objective.
type laggyEcho struct{}

func (laggyEcho) Echo(payload string) (string, error) {
	deadline := time.Now().Add(2 * time.Millisecond)
	for time.Now().Before(deadline) {
	}
	return payload, nil
}
func (laggyEcho) Sum([]int32) (int32, error) { return 0, nil }
func (laggyEcho) Fire(string) error          { return nil }

// TestAlertExemplarSurvivesEvictionAndRenders is the acceptance loop of
// the alerting plane: an induced latency regression fires an SLO rule,
// the firing alert's exemplar chain UUIDs are pinned into the streaming
// tail policy, eviction under NormalRate 0 — which discards every other
// chain — keeps the pinned evidence, and `causectl show <chain>` renders
// the retained chain as a complete DSCG.
func TestAlertExemplarSurvivesEvictionAndRenders(t *testing.T) {
	reg := metrics.NewRegistry()
	pins := sampling.NewPinSet()
	store := logdb.NewStore()
	// SlowThreshold far above every call keeps chains "normal", so with
	// NormalRate 0 only pinned chains can survive eviction at all. The
	// table's clock jumps past Quiescence once the regression has fired:
	// until then no chain goes quiet — the record after a chain's
	// quiescence ends evicts it — so the exemplar is still held when the
	// alert pins it.
	var ahead atomic.Int64
	asm, err := streamrecon.New(streamrecon.Config{
		Store:         store,
		Quiescence:    10 * time.Second,
		Clock:         func() time.Time { return time.Now().Add(time.Duration(ahead.Load())) },
		SlowThreshold: time.Hour,
		Tail:          &sampling.TailPolicy{NormalRate: 0, Pins: pins},
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := telemetry.Listen("127.0.0.1:0", telemetry.ServerConfig{
		Sinks: []probe.Sink{asm},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ev, err := alerting.NewEvaluator(alerting.Config{
		Registry: reg,
		Pins:     pins,
		Rules: []alerting.Rule{{
			Name:       "echo-regression",
			Iface:      "Echo",
			Objective:  time.Microsecond, // over-tight: the 2ms servant always violates it
			Target:     0.9,
			FastWindow: 200 * time.Millisecond,
			SlowWindow: 600 * time.Millisecond,
			Burn:       1,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}

	server, err := causeway.NewProcess(causeway.ProcessConfig{
		Name: "server", Instrumented: true, Monitor: causeway.MonitorLatency,
		ShipTo: srv.Addr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	if err := instrecho.RegisterEcho(server.ORB, "svc", "svc-comp", laggyEcho{}); err != nil {
		t.Fatal(err)
	}
	ep, err := server.ORB.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := causeway.NewProcess(causeway.ProcessConfig{
		Name: "client", Instrumented: true, Monitor: causeway.MonitorLatency,
		ShipTo: srv.Addr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	stub := instrecho.NewEchoStub(client.ORB.RefTo(ep, "svc", "Echo", "svc-comp"))

	// Drive the regression until the multi-window burn rate confirms it.
	calls := 0
	deadline := time.Now().Add(30 * time.Second)
	var firing alerting.Alert
	for {
		if _, err := stub.Echo(fmt.Sprintf("req-%d", calls)); err != nil {
			t.Fatal(err)
		}
		client.NewChain()
		calls++
		ev.Eval()
		if f := ev.Firing(); len(f) > 0 {
			firing = f[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("SLO alert never fired under an induced latency regression")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(firing.Exemplars) == 0 {
		t.Fatal("firing alert carries no exemplar chains")
	}
	exChain := firing.Exemplars[0].Chain

	// Drain the shippers so every chain's records reach the assembler,
	// then let quiescence-driven eviction apply the tail policy.
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	ahead.Store(int64(20 * time.Second))
	evictDeadline := time.Now().Add(10 * time.Second)
	for asm.OpenChains() > 0 {
		asm.Tick()
		if time.Now().After(evictDeadline) {
			t.Fatalf("%d chain(s) never evicted", asm.OpenChains())
		}
		time.Sleep(10 * time.Millisecond)
	}
	led := asm.Ledger()
	if led.Discarded == 0 {
		t.Fatalf("tail policy NormalRate 0 discarded nothing across %d calls; retention was never exercised", calls)
	}

	// The pinned exemplar chain must have survived the discard wave.
	retained := store.Chains()
	found := false
	for _, c := range retained {
		if c.String() == exChain {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("exemplar chain %s not in the %d retained chain(s); pinning did not reach eviction", exChain, len(retained))
	}
	if len(retained) >= calls {
		t.Fatalf("all %d chains retained; NormalRate 0 + pins should keep only pinned evidence", calls)
	}

	// Close the loop: the retained chain renders via causectl show as a
	// complete DSCG containing the offending invocation.
	path := filepath.Join(t.TempDir(), "alerts.ftlog")
	if err := logdb.SaveFile(store, path); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-logs", path, "show", exChain}, &out); err != nil {
		t.Fatalf("causectl show %s: %v\n%s", exChain, err, out.String())
	}
	rendered := out.String()
	if !strings.Contains(rendered, "Echo::echo") {
		t.Fatalf("causectl show output lacks the Echo invocation:\n%s", rendered)
	}
	if !strings.Contains(rendered, exChain[:8]) {
		t.Fatalf("causectl show output lacks chain %s:\n%s", exChain, rendered)
	}
}
