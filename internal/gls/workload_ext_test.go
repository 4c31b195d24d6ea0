package gls_test

import (
	"testing"

	"causeway/internal/gls"
	"causeway/internal/workload"
)

// A synthetic run's client goroutines register at birth, so none of the
// run's probes resolves its goroutine through a stack parse.
func TestGenerateResolvesNoGoroutineByParse(t *testing.T) {
	if !gls.FastPathEnabled() {
		t.Skip("no registration fast path on this platform: every Self parses")
	}
	before := gls.Parses()
	sys, err := workload.Generate(workload.Config{
		Processes: 4, Threads: 8, Components: 20, Interfaces: 15, Methods: 60,
		Calls: 2000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Store().Len() == 0 {
		t.Fatal("the run recorded nothing")
	}
	if n := gls.Parses() - before; n != 0 {
		t.Fatalf("%d probe goroutine resolutions went through a stack parse, want 0", n)
	}
}
