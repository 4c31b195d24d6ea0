package telemetry

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"causeway/internal/probe"
)

// pacedShipper ships to srv with the given frame spacing.
func pacedShipper(t *testing.T, srv *Server, flush time.Duration) *ShipperSink {
	t.Helper()
	sh, err := NewShipper(ShipperConfig{
		Addr: srv.Addr(), Process: testProc("p"), BufferSize: 1 << 16,
		FlushInterval: flush, BackoffMin: 5 * time.Millisecond, DrainTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sh.Close() })
	return sh
}

// waitShipped waits up to within for every appended record to be
// acknowledged, and returns the stats that showed it.
func waitShipped(t *testing.T, sh *ShipperSink, within time.Duration) ShipperStats {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		st := sh.Stats()
		if st.Shipped == st.Appended {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %v, %d of %d records shipped: %+v", within, st.Shipped, st.Appended, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// A steady trickle of spans faster than the collector's round trip shares
// frames: partial batches go out no sooner than FlushInterval after the
// previous frame, so a span every ~50µs for 200ms at a 10ms spacing costs
// one frame per spacing, not one per span.
func TestShipperSpacesPartialFrames(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerConfig{Sinks: []probe.Sink{&probe.CountingSink{}}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const flush = 10 * time.Millisecond
	sh := pacedShipper(t, srv, flush)
	waitFor(t, func() bool { return sh.Stats().Connected }, "the handshake")

	start := time.Now()
	for seq := uint64(1); time.Since(start) < 200*time.Millisecond; seq++ {
		sh.Append(testRecord("p", seq))
		time.Sleep(50 * time.Microsecond)
	}
	elapsed := time.Since(start)
	st := waitShipped(t, sh, 2*time.Second)
	// One frame at the first span, one per spacing after it, and the tail.
	if limit := uint64(elapsed/flush) + 2; st.Batches > limit {
		t.Fatalf("%d records in %d frames over %v, want at most %d at a %v spacing", st.Shipped, st.Batches, elapsed, limit, flush)
	}
}

// A span that finds the shipper idle ships at once, however long the
// spacing: sparse traffic gains no latency.
func TestShipperShipsLoneSpanAtOnce(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerConfig{Sinks: []probe.Sink{&probe.CountingSink{}}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const flush = time.Second
	sh := pacedShipper(t, srv, flush)
	waitFor(t, func() bool { return sh.Stats().Connected }, "the handshake")

	sh.Append(testRecord("p", 1))
	waitShipped(t, sh, 200*time.Millisecond)
	time.Sleep(flush + 50*time.Millisecond)
	sh.Append(testRecord("p", 2))
	if st := waitShipped(t, sh, 200*time.Millisecond); st.Batches != 2 {
		t.Fatalf("two lone spans went out in %d frames", st.Batches)
	}
}

// Producers wake the loop only when the ring turns non-empty or fills a
// batch, and there is no periodic flush behind that: a lost wake would
// strand records for good. Eight producers append bursts with random
// pauses and then stop without Close; every record must still ship, in
// frames no more frequent than the spacing and the full batches allow.
func TestShipperLosesNoWake(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerConfig{Sinks: []probe.Sink{&probe.CountingSink{}}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const flush = 2 * time.Millisecond
	sh := pacedShipper(t, srv, flush)
	waitFor(t, func() bool { return sh.Stats().Connected }, "the handshake")

	const producers = 8
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var span [4]probe.Record
			for burst := 0; burst < 60; burst++ {
				for i := rng.Intn(8); i >= 0; i-- {
					n := 1 + rng.Intn(4)
					for j := range span[:n] {
						span[j] = testRecord("p", uint64(g)<<32|uint64(burst)<<16|uint64(i)<<2|uint64(j))
					}
					sh.AppendSpan(span[:n])
				}
				time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	st := waitShipped(t, sh, 2*time.Second)
	if st.Dropped != 0 {
		t.Fatalf("records dropped: %+v", st)
	}
	// Frames: one per spacing, the full batches, and the first and last.
	limit := uint64(elapsed/flush) + st.Appended/256 + 2
	if st.Batches > limit {
		t.Fatalf("%d records in %d frames over %v, want at most %d", st.Shipped, st.Batches, elapsed, limit)
	}
}

// timedBacklog is a backlogged sink that notes when each ship frame was
// refused.
type timedBacklog struct {
	backlogSink
	mu      sync.Mutex
	refused []time.Time
}

func (s *timedBacklog) Backlogged() bool {
	if !s.full.Load() {
		return false
	}
	s.mu.Lock()
	s.refused = append(s.refused, time.Now())
	s.mu.Unlock()
	return true
}

// A shipper whose batch is refused sends it again after a jittered
// BackoffMin — never sooner than Jitter's floor, BackoffMin/2 — not at the
// producers' rate, and a Close that finds the collector backlogged keeps
// trying within its drain budget.
func TestShipperBacksOffRefusedBatch(t *testing.T) {
	sink := &timedBacklog{}
	sink.full.Store(true)
	srv, err := Listen("127.0.0.1:0", ServerConfig{Sinks: []probe.Sink{sink}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const backoff = 20 * time.Millisecond
	sh, err := NewShipper(ShipperConfig{
		Addr: srv.Addr(), Process: testProc("p"), BufferSize: 4096,
		BackoffMin: backoff, DrainTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 1; i <= n; i++ {
		sh.Append(testRecord("p", uint64(i)))
		if i%10 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	waitFor(t, func() bool { return srv.Stats().Refused >= 3 }, "three refusals")
	sink.mu.Lock()
	for i := 1; i < len(sink.refused); i++ {
		if gap := sink.refused[i].Sub(sink.refused[i-1]); gap < backoff/2 {
			t.Errorf("refusal %d came %v after the one before, want at least %v", i, gap, backoff/2)
		}
	}
	sink.mu.Unlock()

	closed := make(chan struct{})
	go func() { sh.Close(); close(closed) }()
	time.Sleep(100 * time.Millisecond)
	sink.full.Store(false)
	<-closed
	if st := sh.Stats(); st.Shipped != n || st.Dropped != 0 {
		t.Fatalf("after the backlog cleared during Close: %+v", st)
	}
	if got := srv.Stats().Records; got != n {
		t.Fatalf("the server took %d records, want %d", got, n)
	}
}
