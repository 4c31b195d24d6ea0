package com

import (
	"fmt"
	"testing"
	"time"

	"causeway/internal/analysis"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/topology"
	"causeway/internal/uuid"
)

func newRuntime(t testing.TB, instrumented, prevent bool) (*Runtime, *probe.MemorySink) {
	t.Helper()
	sink := &probe.MemorySink{}
	p, err := probe.New(probe.Config{
		Process: topology.Process{ID: "com-proc", Processor: topology.Processor{ID: "c", Type: "x86"}},
		Sink:    sink,
		Chains:  &uuid.SequentialGenerator{Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(Config{Probes: p, Instrumented: instrumented, PreventMingling: prevent})
	if err != nil {
		t.Fatal(err)
	}
	return rt, sink
}

func reconstruct(t testing.TB, sink *probe.MemorySink) *analysis.DSCG {
	t.Helper()
	db := logdb.NewStore()
	db.Insert(sink.Snapshot()...)
	return analysis.Reconstruct(db)
}

func echoServant() Servant {
	return ServantFunc(func(method string, args []any) ([]any, error) {
		switch method {
		case "echo":
			return args, nil
		case "fail":
			return nil, fmt.Errorf("servant failure")
		default:
			return nil, fmt.Errorf("no method %q", method)
		}
	})
}

func TestMTACallBasics(t *testing.T) {
	rt, sink := newRuntime(t, true, true)
	defer rt.Shutdown()
	mta := rt.NewMTA("workers")
	ref, err := rt.Register("echo1", "IEcho", "comp", mta, echoServant())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.Call("echo", "hello", 42)
	if err != nil || len(res) != 2 || res[0] != "hello" {
		t.Fatalf("Call = %v, %v", res, err)
	}
	if _, err := ref.Call("fail"); err == nil {
		t.Fatal("servant error swallowed")
	}
	rt.Probes().Tunnel().Clear()
	g := reconstruct(t, sink)
	if len(g.Anomalies) != 0 || g.Nodes() != 2 {
		t.Fatalf("nodes=%d anomalies=%v", g.Nodes(), g.Anomalies)
	}
}

func TestSTASerializesOnOneThread(t *testing.T) {
	rt, sink := newRuntime(t, true, true)
	defer rt.Shutdown()
	sta := rt.NewSTA("ui")
	ref, err := rt.Register("obj", "IUi", "comp", sta, echoServant())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := ref.Call("echo", i); err != nil {
			t.Fatal(err)
		}
		rt.Probes().Tunnel().Clear()
	}
	// All skeleton-side records share the STA loop thread.
	var threads = map[uint64]bool{}
	for _, r := range sink.Snapshot() {
		if r.Kind == probe.KindEvent && r.Event.ProbeNumber() == 2 {
			threads[r.Thread] = true
		}
	}
	if len(threads) != 1 {
		t.Fatalf("STA dispatched on %d threads", len(threads))
	}
}

func TestSTAReentrantSelfCall(t *testing.T) {
	rt, _ := newRuntime(t, true, true)
	defer rt.Shutdown()
	sta := rt.NewSTA("ui")
	inner, err := rt.Register("inner", "IInner", "comp", sta, echoServant())
	if err != nil {
		t.Fatal(err)
	}
	outerServant := ServantFunc(func(method string, args []any) ([]any, error) {
		// Same-apartment nested call: must pump, not deadlock.
		return inner.Call("echo", "nested")
	})
	outer, err := rt.Register("outer", "IOuter", "comp", sta, outerServant)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := outer.Call("run")
		done <- err
		rt.Probes().Tunnel().Clear()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reentrant same-apartment call deadlocked")
	}
}

func TestOnewayPostForksChain(t *testing.T) {
	rt, sink := newRuntime(t, true, true)
	mta := rt.NewMTA("w")
	got := make(chan []any, 1)
	sv := ServantFunc(func(method string, args []any) ([]any, error) {
		got <- args
		return nil, nil
	})
	ref, err := rt.Register("n", "INotify", "comp", mta, sv)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Post("notify", "evt"); err != nil {
		t.Fatal(err)
	}
	select {
	case args := <-got:
		if args[0] != "evt" {
			t.Fatalf("args = %v", args)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("oneway never delivered")
	}
	rt.Probes().Tunnel().Clear()
	rt.Shutdown()
	g := reconstruct(t, sink)
	if len(g.Anomalies) != 0 || g.Nodes() != 1 {
		t.Fatalf("nodes=%d anomalies=%v", g.Nodes(), g.Anomalies)
	}
	if !g.Trees[0].Roots[0].Oneway {
		t.Fatal("node not marked oneway")
	}
}

// minglingScenario reproduces §2.2's STA multiplexing: a call C1 being
// served pumps the message loop mid-body (after queueing another incoming
// call), then issues a further child call. It returns the reconstruction.
func minglingScenario(t *testing.T, prevent bool) *analysis.DSCG {
	t.Helper()
	rt, sink := newRuntime(t, true, prevent)
	sta := rt.NewSTA("ui")
	mta := rt.NewMTA("w")

	echo, err := rt.Register("echo", "IEcho", "comp", mta, echoServant())
	if err != nil {
		t.Fatal(err)
	}
	intruder, err := rt.Register("intruder", "IIntruder", "comp", sta, echoServant())
	if err != nil {
		t.Fatal(err)
	}
	mainServant := ServantFunc(func(method string, args []any) ([]any, error) {
		if _, err := echo.Call("echo", "first child"); err != nil {
			return nil, err
		}
		// Queue the intruding call C2 on our own apartment, then pump: the
		// loop thread switches to serve C2 before C1 finished.
		if err := intruder.Post("echo", "C2"); err != nil {
			return nil, err
		}
		rt.Pump()
		if _, err := echo.Call("echo", "second child"); err != nil {
			return nil, err
		}
		return nil, nil
	})
	mainRef, err := rt.Register("main", "IMain", "comp", sta, mainServant)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mainRef.Call("serve"); err != nil {
		t.Fatal(err)
	}
	rt.Probes().Tunnel().Clear()
	rt.Shutdown()
	return reconstruct(t, sink)
}

// TestSTAMinglingWithoutFix: with instrumentation but without the paper's
// save/restore fix, the interrupted call's chain is corrupted.
func TestSTAMinglingWithoutFix(t *testing.T) {
	g := minglingScenario(t, false)
	if len(g.Anomalies) == 0 {
		t.Fatal("expected mingled chains without the fix, got a clean graph")
	}
}

// TestSTAMinglingPrevented: the save/restore around dispatch keeps C1's
// chain intact: C1 = serve(echo, echo) plus the oneway intruder, all clean.
func TestSTAMinglingPrevented(t *testing.T) {
	g := minglingScenario(t, true)
	if len(g.Anomalies) != 0 {
		t.Fatalf("anomalies despite fix: %v", g.Anomalies)
	}
	// Find the serve() root: it must have exactly 3 children in order:
	// echo, the intruding oneway echo, echo — all on C1's chain or forked.
	var serve *analysis.Node
	g.Walk(func(n *analysis.Node) {
		if n.Op().Operation == "serve" {
			serve = n
		}
	})
	if serve == nil {
		t.Fatal("serve node missing")
	}
	if len(serve.Children) != 3 {
		ops := make([]string, 0, len(serve.Children))
		for _, c := range serve.Children {
			ops = append(ops, c.Op().Operation)
		}
		t.Fatalf("serve children = %v", ops)
	}
	if !serve.Children[1].Oneway {
		t.Fatal("intruder not attached as oneway child")
	}
}

func TestRuntimeValidation(t *testing.T) {
	if _, err := NewRuntime(Config{}); err == nil {
		t.Fatal("runtime without probes accepted")
	}
	rt, _ := newRuntime(t, false, false)
	defer rt.Shutdown()
	mta := rt.NewMTA("w")
	if _, err := rt.Register("a", "I", "c", mta, echoServant()); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Register("a", "I", "c", mta, echoServant()); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if _, err := rt.Object("missing"); err == nil {
		t.Fatal("unknown object resolved")
	}
	ref, err := rt.Object("a")
	if err != nil {
		t.Fatal(err)
	}
	if res, err := ref.Call("echo", 1); err != nil || res[0] != 1 {
		t.Fatalf("uninstrumented call = %v, %v", res, err)
	}
}

func TestUninstrumentedProducesNoRecords(t *testing.T) {
	rt, sink := newRuntime(t, false, false)
	mta := rt.NewMTA("w")
	ref, err := rt.Register("a", "I", "c", mta, echoServant())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Call("echo", 1); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	if sink.Len() != 0 {
		t.Fatalf("uninstrumented runtime produced %d records", sink.Len())
	}
}
