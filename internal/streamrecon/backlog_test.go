package streamrecon

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"causeway/internal/ftl"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/sampling"
	"causeway/internal/telemetry"
	"causeway/internal/topology"
	"causeway/internal/uuid"
)

// capBuffered sets the table's backlog cap for one test.
func capBuffered(t *testing.T, n int) {
	old := maxBuffered
	maxBuffered = n
	t.Cleanup(func() { maxBuffered = old })
}

// heldMeter is a table behind a telemetry server that remembers the most
// records it held after any frame. Backlogged is the table's own.
type heldMeter struct {
	*Assembler
	mu   sync.Mutex
	peak uint64
}

func (m *heldMeter) AppendBatch(recs []probe.Record) {
	m.Assembler.AppendBatch(recs)
	held := m.Ledger().Buffered
	m.mu.Lock()
	m.peak = max(m.peak, held)
	m.mu.Unlock()
}

// waitUntil polls cond for up to five seconds.
func waitUntil(t *testing.T, cond func() bool, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// Producers that never let the table catch up — each ships eight chains
// round robin, 16 records of complete calls a chain before moving to a
// fresh one, in bursts far faster than a Tick every 40 ms drains — meet a
// table capped at 200 records. The table is pushed back on at the server,
// never shed: it holds at most the cap plus one frame per connection, its
// ledger balances after every Tick, every record a shipper counts shipped
// reaches the store or a counted tail-policy discard, whatever was lost
// is in the shippers' Dropped, and no goroutine outlives Close.
func TestBacklogBoundedUnderUnquietProducer(t *testing.T) {
	const limit, producers, live, perChain, batch = 200, 3, 8, 16, 64
	capBuffered(t, limit)
	baseline := runtime.NumGoroutine()

	store := logdb.NewStore()
	a, err := New(Config{
		Store: store, Quiescence: 20 * time.Millisecond, StaleAfter: 300 * time.Millisecond,
		Tail: &sampling.TailPolicy{NormalRate: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	table := &heldMeter{Assembler: a}
	srv, err := telemetry.Listen("127.0.0.1:0", telemetry.ServerConfig{Sinks: []probe.Sink{table}})
	if err != nil {
		t.Fatal(err)
	}
	ships := make([]*telemetry.ShipperSink, producers)
	for i := range ships {
		if ships[i], err = telemetry.NewShipper(telemetry.ShipperConfig{
			Addr: srv.Addr(), Process: topology.Process{ID: fmt.Sprintf("p%d", i)},
			BufferSize: 1024, BatchSize: batch, FlushInterval: 5 * time.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
	}

	events := [4]ftl.Event{ftl.StubStart, ftl.SkelStart, ftl.SkelEnd, ftl.StubEnd}
	var producing sync.WaitGroup
	stop := time.Now().Add(500 * time.Millisecond)
	for p, sh := range ships {
		producing.Add(1)
		go func() {
			defer producing.Done()
			for n := 0; time.Now().Before(stop); n++ {
				slot, round := n%live, n/live
				gen, seq := round/perChain, uint64(round%perChain+1)
				sh.Append(probe.Record{
					Kind: probe.KindEvent, Process: fmt.Sprintf("p%d", p),
					Chain: uuid.UUID{0: byte(p), 1: byte(slot), 2: byte(gen), 3: byte(gen >> 8)},
					Seq:   seq, Event: events[(seq-1)%4], Op: probe.OpID{Interface: "I", Operation: "busy"},
				})
				if n%64 == 63 {
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { producing.Wait(); close(done) }()
	settled := func() bool {
		select {
		case <-done:
		default:
			return false
		}
		for _, sh := range ships {
			if sh.Stats().Buffered > 0 {
				return false
			}
		}
		return true
	}
	// The throttled Tick loop: a Tick every 40 ms while the producers run, and
	// until the shippers have delivered what their rings kept.
	for deadline := time.Now().Add(10 * time.Second); !settled(); {
		if time.Now().After(deadline) {
			t.Fatal("the shippers never delivered what they hold")
		}
		time.Sleep(40 * time.Millisecond)
		a.Tick()
		checkLedger(t, a)
	}
	var appended, shipped, dropped uint64
	for _, sh := range ships {
		sh.Close()
		st := sh.Stats()
		appended, shipped, dropped = appended+st.Appended, shipped+st.Shipped, dropped+st.Dropped
	}
	refused := srv.Stats().Refused
	srv.Close()
	a.FlushOpen()

	led := checkLedger(t, a)
	if bound := uint64(limit + producers*batch); table.peak > bound {
		t.Fatalf("the table held %d records, more than the cap %d plus one %d-record frame per connection", table.peak, limit, batch)
	}
	if refused == 0 {
		t.Fatal("no ship frame was refused: the producers never outran the table")
	}
	if led.Appended != shipped || led.Buffered != 0 || uint64(store.Len()) != led.Persisted || led.Shed != 0 {
		t.Fatalf("shippers acknowledged %d records; ledger %+v, store holds %d", shipped, led, store.Len())
	}
	if appended != shipped+dropped {
		t.Fatalf("shippers were offered %d records, shipped %d and dropped %d", appended, shipped, dropped)
	}
	t.Logf("offered %d, shipped %d (persisted %d, discarded %d), dropped at the shippers %d; %d frames refused; peak held %d",
		appended, shipped, led.Persisted, led.Discarded, dropped, refused, table.peak)

	waitUntil(t, func() bool { return runtime.NumGoroutine() <= baseline }, "goroutines back to the baseline")
}

// A replay frame goes to the store, not the table, and a failed donation is
// not retried on its own: a backlogged table refuses ship frames but never
// a replay. The refused ship frame is taken once a Tick lets a chain go.
func TestReplayAcceptedWhileBacklogged(t *testing.T) {
	capBuffered(t, 4)
	clock := newFakeClock()
	a, store := newAssembler(t, clock, nil)
	p, sink := newProbes(t, 12)
	op := probe.OpID{Component: "c", Interface: "I", Operation: "push", Object: "o"}
	oneCall(p, op) // 4 records: the table is at its cap
	feed(a, sink.Snapshot())
	if !a.Backlogged() {
		t.Fatalf("a table holding %d of 4 records is not backlogged", a.Ledger().Buffered)
	}

	srv, err := telemetry.Listen("127.0.0.1:0", telemetry.ServerConfig{
		Sinks:  []probe.Sink{a},
		Replay: func(recs []probe.Record) int { return store.InsertNew(recs...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	donor, err := telemetry.DialCourier(srv.Addr(), "donor", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer donor.Close()
	sink.Reset()
	oneCall(p, op)
	if n, err := donor.Replay(sink.Snapshot()); err != nil || n != 4 {
		t.Fatalf("replay while backlogged: accepted %d, err %v; want 4", n, err)
	}

	sh, err := telemetry.NewShipper(telemetry.ShipperConfig{
		Addr: srv.Addr(), Process: topology.Process{ID: "proc"}, FlushInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh.Append(probe.Record{Kind: probe.KindEvent, Process: "proc", Chain: uuid.UUID{0: 0xee}, Seq: 1, Event: ftl.StubStart, Op: op})
	waitUntil(t, func() bool { return srv.Stats().Refused > 0 }, "the ship frame refused")
	if st := srv.Stats(); st.Records != 0 || st.BadFrames != 0 || st.Replayed != 4 {
		t.Fatalf("server stats while backlogged: %+v", st)
	}
	clock.Advance(time.Second)
	a.Tick() // the full chain goes quiet and leaves
	waitUntil(t, func() bool { return srv.Stats().Records == 1 }, "the refused frame taken after the Tick")
	sh.Close()
	a.FlushOpen()
	if led := checkLedger(t, a); led.Appended != 5 || led.Persisted != 5 || store.Len() != 9 {
		t.Fatalf("ledger %+v, store holds %d: want 5 appended and persisted beside 4 replayed", led, store.Len())
	}
}
