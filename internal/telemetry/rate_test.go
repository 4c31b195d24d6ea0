package telemetry

import (
	"sync/atomic"
	"testing"
	"time"

	"causeway/internal/probe"
	"causeway/internal/sampling"
)

// TestRatePollingAppliesServerRate: a shipper configured with a
// RateTarget polls the collector and applies the rate in each reply — the
// feedback half of adaptive sampling.
func TestRatePollingAppliesServerRate(t *testing.T) {
	var served atomic.Uint64 // rate bits, settable mid-test
	served.Store(rateBits(0.25))
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Sinks:      []probe.Sink{&probe.MemorySink{}},
		SampleRate: func() float64 { return rateFromBits(served.Load()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	target := sampling.NewControlled(1.0)
	sh, err := NewShipper(ShipperConfig{
		Addr:          srv.Addr(),
		Process:       testProc("rated"),
		FlushInterval: 2 * time.Millisecond,
		RateTarget:    target,
		PollInterval:  2 * time.Millisecond,
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
// answers polls with no rate; the shipper keeps its current rate and the
// connection stays healthy for shipping.
func TestRatePollingToleratesDisabledServer(t *testing.T) {
	mem := &probe.MemorySink{}
	srv, err := Listen("127.0.0.1:0", ServerConfig{Sinks: []probe.Sink{mem}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	target := sampling.NewControlled(0.5)
	sh, err := NewShipper(ShipperConfig{
		Addr:          srv.Addr(),
		Process:       testProc("unrated"),
		FlushInterval: 2 * time.Millisecond,
		RateTarget:    target,
		PollInterval:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		sh.Append(testRecord("unrated", uint64(i)))
	}
	time.Sleep(20 * time.Millisecond) // several rateless polls
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	if target.Rate() != 0.5 {
		t.Fatalf("rateless polls changed the rate to %g", target.Rate())
	}
	if bf := srv.Stats().BadFrames; bf != 0 {
		t.Fatalf("rateless polls counted %d bad frames", bf)
	}
	if mem.Len() != 50 {
		t.Fatalf("server sink holds %d records, want 50", mem.Len())
	}
	if st := sh.Stats(); st.Dropped != 0 {
		t.Fatalf("dropped %d records", st.Dropped)
	}
}

// TestShipperTakesRateFromHandshake: the hello reply carries the
// collector's rate, so a process follows it from its first connection, not
// a poll later.
func TestShipperTakesRateFromHandshake(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerConfig{SampleRate: func() float64 { return 0.25 }})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	target := sampling.NewControlled(1.0)
	sh, err := NewShipper(ShipperConfig{
		Addr:         srv.Addr(),
		Process:      testProc("rated"),
		RateTarget:   target,
		PollInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	waitFor(t, func() bool { return sh.Stats().Connects == 1 }, "handshake")
	if r := target.Rate(); r != 0.25 {
		t.Fatalf("rate after the handshake = %g, want the collector's 0.25", r)
	}
}

func rateBits(r float64) uint64     { return uint64(int64(r * 1e6)) }
func rateFromBits(b uint64) float64 { return float64(b) / 1e6 }
