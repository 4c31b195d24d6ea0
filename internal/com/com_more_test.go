package com

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMTADispatchesConcurrently: two MTA calls can overlap (unlike STA).
func TestMTADispatchesConcurrently(t *testing.T) {
	rt, _ := newRuntime(t, false, false)
	defer rt.Shutdown()
	mta := rt.NewMTA("w")
	var active, peak atomic.Int32
	gate := make(chan struct{})
	sv := ServantFunc(func(string, []any) ([]any, error) {
		cur := active.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		<-gate
		active.Add(-1)
		return nil, nil
	})
	ref, err := rt.Register("o", "I", "c", mta, sv)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ref.Call("m"); err != nil {
				t.Error(err)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for peak.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if peak.Load() < 2 {
		t.Fatalf("MTA peak concurrency = %d, want >= 2", peak.Load())
	}
}

// TestPumpOutsideSTAIsNoop: calling Pump from a plain goroutine does
// nothing and does not panic.
func TestPumpOutsideSTAIsNoop(t *testing.T) {
	rt, _ := newRuntime(t, false, false)
	defer rt.Shutdown()
	rt.Pump()
}

// TestSTACallAfterShutdownFails: posting into a stopped apartment errors
// rather than hanging.
func TestSTACallAfterShutdownFails(t *testing.T) {
	rt, _ := newRuntime(t, false, false)
	sta := rt.NewSTA("ui")
	ref, err := rt.Register("o", "I", "c", sta, echoServant())
	if err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	done := make(chan error, 1)
	go func() {
		_, err := ref.Call("echo", 1)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call into stopped apartment succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call into stopped apartment hung")
	}
}

// TestCrossApartmentSTAtoSTA: a servant in one STA calling an object in a
// different STA must not deadlock (each apartment has its own loop).
func TestCrossApartmentSTAtoSTA(t *testing.T) {
	rt, sink := newRuntime(t, true, true)
	defer rt.Shutdown()
	staA := rt.NewSTA("a")
	staB := rt.NewSTA("b")
	refB, err := rt.Register("b-obj", "IB", "c", staB, echoServant())
	if err != nil {
		t.Fatal(err)
	}
	svA := ServantFunc(func(method string, args []any) ([]any, error) {
		return refB.Call("echo", "cross")
	})
	refA, err := rt.Register("a-obj", "IA", "c", staA, svA)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		res, err := refA.Call("go")
		if err == nil && res[0] != "cross" {
			err = &CalloutError{}
		}
		done <- err
		rt.Probes().Tunnel().Clear()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cross-apartment call deadlocked")
	}
	g := reconstruct(t, sink)
	if len(g.Anomalies) != 0 || g.Nodes() != 2 {
		t.Fatalf("nodes=%d anomalies=%v", g.Nodes(), g.Anomalies)
	}
	outer := g.Trees[0].Roots[0]
	if len(outer.Children) != 1 || outer.Children[0].Op().Interface != "IB" {
		t.Fatalf("chain did not cross apartments: %+v", outer)
	}
}

// CalloutError marks an unexpected result in the cross-apartment test.
type CalloutError struct{}

func (*CalloutError) Error() string { return "unexpected result" }
