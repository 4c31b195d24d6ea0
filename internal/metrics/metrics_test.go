package metrics_test

import (
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"causeway/internal/analysis"
	"causeway/internal/metrics"
)

// TestHistogramMatchesAnalysisDigest pins what a Histogram and the offline
// analyzer's Digest still each write for themselves — the walk over their
// own counts (atomic in one, plain in the other) up to the shared
// QuantileRank: fed identical observations they report bit-identical
// quantiles, across the whole bucket range including the <=1ns floor and
// the clamp bucket.
func TestHistogramMatchesAnalysisDigest(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h metrics.Histogram
	var d analysis.Digest
	obs := []time.Duration{0, 1, 2, 5, 999, time.Microsecond, 300 * time.Second, 1000 * time.Second}
	for i := 0; i < 5000; i++ {
		// Log-uniform spread over 1ns..~100s so every bucket range is hit.
		obs = append(obs, time.Duration(math.Pow(10, rng.Float64()*11)))
	}
	for _, v := range obs {
		h.Observe(v)
		d.Add(v)
	}
	if h.Count() != d.Count() {
		t.Fatalf("count mismatch: histogram %d, digest %d", h.Count(), d.Count())
	}
	for q := 0.0; q <= 1.0; q += 0.01 {
		if got, want := h.Quantile(q), d.Quantile(q); got != want {
			t.Fatalf("q=%.2f: histogram %v, digest %v", q, got, want)
		}
	}
}

// TestMetricsHotPathAllocFree pins the tentpole property: the operations
// the invocation hot path performs — op lookup, counter adds, histogram
// observes — allocate nothing in steady state.
func TestMetricsHotPathAllocFree(t *testing.T) {
	reg := metrics.NewRegistry()
	key := metrics.OpKey{Interface: "Echo", Operation: "echo"}
	reg.Op(key) // one-time creation outside the measurement
	reg.ObserveChain("Echo", time.Millisecond)
	if allocs := testing.AllocsPerRun(500, func() {
		s := reg.Op(key)
		s.Calls.AddAt(7, 1)
		s.Dispatches.Add(1)
		s.StubTime.Observe(42 * time.Microsecond)
		s.SkelTime.Observe(11 * time.Microsecond)
		reg.ORB.Timeouts.Add(1)
		reg.Net.BytesSent.AddAt(7, 128)
		reg.ObserveChain("Echo", 40*time.Microsecond)
	}); allocs != 0 {
		t.Fatalf("hot-path metrics operations allocate %v per run, want 0", allocs)
	}
}

// TestCounterConcurrent exercises the sharded counter under contention
// (run with -race) and checks no increments are lost.
func TestCounterConcurrent(t *testing.T) {
	var c metrics.Counter
	const goroutines, perG = 16, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if i%2 == 0 {
					c.Add(1)
				} else {
					c.AddAt(uint64(g), 1)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Load(); got != goroutines*perG {
		t.Fatalf("counter lost updates: %d, want %d", got, goroutines*perG)
	}
}

// TestRegistryExposition checks the text rendering: series presence,
// integer-nanosecond quantiles matching the digest math, named counters,
// and pluggable sources.
func TestRegistryExposition(t *testing.T) {
	reg := metrics.NewRegistry()
	s := reg.Op(metrics.OpKey{Interface: "Echo", Operation: "echo"})
	s.Calls.Add(3)
	s.StubTime.Observe(time.Millisecond)
	reg.ObserveChain("Echo", 2*time.Millisecond)
	reg.Named("causeway_torn_tail_recoveries_total").Add(2)
	reg.RegisterSource("extra", func(w io.Writer) { io.WriteString(w, "extra_series 1\n") })
	var sb strings.Builder
	reg.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{
		`causeway_op_calls_total{iface="Echo",op="echo"} 3`,
		`causeway_op_dispatches_total{iface="Echo",op="echo"} 0`,
		`causeway_op_stub_count{iface="Echo",op="echo"} 1`,
		`causeway_op_stub_ns{iface="Echo",op="echo",q="0.99"} `,
		`causeway_chain_latency_count{iface="Echo"} 1`,
		"causeway_orb_timeouts_total 0",
		"causeway_net_bytes_sent_total 0",
		"causeway_torn_tail_recoveries_total 2",
		"extra_series 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Quantiles agree with the digest math exactly (single observation).
	var d analysis.Digest
	d.Add(2 * time.Millisecond)
	want := `causeway_chain_latency_ns{iface="Echo",q="0.5"} ` + strconv.FormatInt(int64(d.Quantile(0.5)), 10)
	if !strings.Contains(out, want) {
		t.Fatalf("chain latency p50 line %q missing:\n%s", want, out)
	}
	// A replaced source must not duplicate.
	reg.RegisterSource("extra", func(w io.Writer) { io.WriteString(w, "extra_series 2\n") })
	sb.Reset()
	reg.WriteText(&sb)
	if strings.Contains(sb.String(), "extra_series 1") || !strings.Contains(sb.String(), "extra_series 2") {
		t.Fatalf("source replacement failed:\n%s", sb.String())
	}
}
