package telemetry

import (
	"sync/atomic"
	"testing"
	"time"

	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/sampling"
)

// TestRatePollingAppliesServerRate: a shipper configured with a
// RateTarget polls the collector's rate operation and applies the
// answer — the feedback half of adaptive sampling.
func TestRatePollingAppliesServerRate(t *testing.T) {
	var served atomic.Uint64 // rate bits, settable mid-test
	served.Store(rateBits(0.25))
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Sinks:      []probe.Sink{probe.StoreSink{Store: logdb.NewStore()}},
		SampleRate: func() float64 { return rateFromBits(served.Load()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	target := sampling.NewControlled(1.0)
	sh, err := NewShipper(ShipperConfig{
		Addr:             srv.Addr(),
		Process:          testProc("rated"),
		FlushInterval:    2 * time.Millisecond,
		RateTarget:       target,
		RatePollInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	awaitRate := func(want float64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for target.Rate() != want {
			if time.Now().After(deadline) {
				t.Fatalf("rate never reached %g (at %g)", want, target.Rate())
			}
			time.Sleep(time.Millisecond)
		}
	}
	awaitRate(0.25)
	// The collector steers mid-run; the shipper follows.
	served.Store(rateBits(0.75))
	awaitRate(0.75)
}

// TestRatePollingToleratesDisabledServer: a collector without sampling
// rejects rate queries; the shipper keeps its current rate and the
// connection stays healthy for shipping.
func TestRatePollingToleratesDisabledServer(t *testing.T) {
	store := logdb.NewStore()
	srv, err := Listen("127.0.0.1:0", ServerConfig{Sinks: []probe.Sink{probe.StoreSink{Store: store}}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	target := sampling.NewControlled(0.5)
	sh, err := NewShipper(ShipperConfig{
		Addr:             srv.Addr(),
		Process:          testProc("unrated"),
		FlushInterval:    2 * time.Millisecond,
		RateTarget:       target,
		RatePollInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		sh.Append(testRecord("unrated", uint64(i)))
	}
	time.Sleep(20 * time.Millisecond) // several rejected polls
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	if target.Rate() != 0.5 {
		t.Fatalf("rejected polls changed the rate to %g", target.Rate())
	}
	if bf := srv.Stats().BadFrames; bf != 0 {
		t.Fatalf("rejected polls counted %d bad frames", bf)
	}
	if store.Len() != 50 {
		t.Fatalf("store holds %d records, want 50", store.Len())
	}
	if st := sh.Stats(); st.Dropped != 0 {
		t.Fatalf("dropped %d records", st.Dropped)
	}
}

func rateBits(r float64) uint64     { return uint64(int64(r * 1e6)) }
func rateFromBits(b uint64) float64 { return float64(b) / 1e6 }
