package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"causeway/internal/ftl"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/streamrecon"
	"causeway/internal/telemetry"
	"causeway/internal/topology"
	"causeway/internal/tracestore"
	"causeway/internal/uuid"
)

// fakeClock is a chain table clock a test moves by hand.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Add(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// openDiskNode opens a trace store in dir and starts a node over it.
func openDiskNode(t *testing.T, dir string, table streamrecon.Config) (*Node, *tracestore.Store) {
	t.Helper()
	ts, err := tracestore.Open(dir, tracestore.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	node, err := StartNode(NodeConfig{Listen: "127.0.0.1:0", Store: ts, Table: table})
	if err != nil {
		ts.Close()
		t.Fatal(err)
	}
	return node, ts
}

// abandon leaves a node as kill -9 leaves a collector: its server stops
// answering, and nothing else happens — the chain table keeps its chains,
// the store its buffered writes, the journal its files.
func abandon(n *Node) { n.srv.Close() }

// ship sends recs through a shipper and returns once every one of them is
// acknowledged and applied to the chain table: an ack alone means the
// frame is journaled, but the shipper's Close sends its closing account,
// and the server answers that only after applying every frame the
// connection sent before it.
func ship(t *testing.T, addr string, recs []probe.Record) {
	t.Helper()
	sh, err := telemetry.NewShipper(telemetry.ShipperConfig{
		Addr:          addr,
		Process:       topology.Process{ID: "p", Processor: topology.Processor{ID: "p", Type: "x86"}},
		FlushInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	for _, r := range recs {
		sh.Append(r)
	}
	waitFor(t, func() bool { return sh.Stats().Shipped == uint64(len(recs)) }, "every record acknowledged")
}

// requireHeld fails unless store holds every record of recs by identity:
// events by (chain, seq), links by (parent, parent seq).
func requireHeld(t *testing.T, store Store, recs []probe.Record) {
	t.Helper()
	for _, r := range recs {
		if r.Kind == probe.KindLink {
			if child, ok := store.ChildChain(r.LinkParent, r.LinkParentSeq); !ok || child != r.LinkChild {
				t.Fatalf("link %s/%d lost", r.LinkParent.Short(), r.LinkParentSeq)
			}
			continue
		}
		found := false
		for _, e := range store.Events(r.Chain) {
			found = found || e.Seq == r.Seq
		}
		if !found {
			t.Fatalf("event %s/%d lost", r.Chain.Short(), r.Seq)
		}
	}
}

func journalNames(t *testing.T, storeDir string) []string {
	t.Helper()
	names, err := journalFiles(filepath.Join(storeDir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestJournalSurvivesKill: records a collector acknowledged survive its
// process being killed — whether their chains were still open in the
// table, or already evicted into the store's unflushed buffers, or the
// frame was a replay — because each frame was journaled before its ack.
// The reopened node replays the journal, and after its drain the store
// holds every acknowledged record and the ledger balances.
func TestJournalSurvivesKill(t *testing.T) {
	for _, tc := range []struct {
		name          string
		evict, replay bool
	}{
		{name: "chains open in the table"},
		{name: "chains evicted into the store's buffers", evict: true},
		{name: "a replay frame acked before the kill", replay: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			clock := &fakeClock{now: time.Unix(1000, 0)}
			node, _ := openDiskNode(t, dir, streamrecon.Config{Quiescence: 100 * time.Millisecond, Clock: clock.Now})

			gen := &uuid.SequentialGenerator{Seed: 42}
			var recs []probe.Record
			for i := 0; i < 20; i++ {
				recs = append(recs, chainRecords(gen.NewUUID(), gen.NewUUID())...)
			}
			ship(t, node.Addr(), recs)
			if tc.evict {
				// The table alone ticks: the chains go stale and leave for
				// the store's buffers, and the journal keeps its files.
				clock.Add(time.Minute)
				node.Table().Tick()
				if led := node.Table().Ledger(); led.Persisted != uint64(len(recs)) || led.Buffered != 0 {
					t.Fatalf("table did not evict every chain: %+v", led)
				}
			}
			if tc.replay {
				donor := logdb.NewStore()
				var donated []probe.Record
				for i := 0; i < 10; i++ {
					donated = append(donated, chainRecords(gen.NewUUID(), gen.NewUUID())...)
				}
				donor.Insert(donated...)
				res, err := Replay(ReplayConfig{Source: donor, Range: func(uuid.UUID) bool { return true }, Target: node.Addr()})
				if err != nil || res.Accepted != uint64(len(donated)) {
					t.Fatalf("replay: %+v, %v", res, err)
				}
				recs = append(recs, donated...)
			}
			abandon(node)

			reborn, store := openDiskNode(t, dir, streamrecon.Config{})
			defer store.Close()
			if w := reborn.Warnings(); len(w) != 0 {
				t.Fatalf("replay warned: %q", w)
			}
			if err := reborn.Close(); err != nil {
				t.Fatal(err)
			}
			requireHeld(t, store, recs)
			if store.Len() != len(recs) {
				t.Fatalf("store holds %d records, want the %d acknowledged", store.Len(), len(recs))
			}
			if led := reborn.Ledger(); !led.Balanced() || led.Replayed != 0 || led.Appended == 0 {
				t.Fatalf("reborn ledger %s: want the replayed journal as Appended and Persisted", led)
			}
			if left := journalNames(t, dir); len(left) != 0 {
				t.Fatalf("journal holds %v after the drain", left)
			}
		})
	}
}

// TestJournalKillBetweenReplyAndApply: a ship frame is acknowledged once
// the journal holds it, and the chain table applies it after the reply.
// A node killed with an acknowledged frame's apply still running — here
// held in the OnComplete of a chain the frame's arrival evicts — loses
// nothing: the reborn node replays the frame from the journal.
func TestJournalKillBetweenReplyAndApply(t *testing.T) {
	dir := t.TempDir()
	clock := &fakeClock{now: time.Unix(1000, 0)}
	var hold atomic.Bool
	entered, held := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(held) })
	defer release()
	node, _ := openDiskNode(t, dir, streamrecon.Config{
		Quiescence: 100 * time.Millisecond,
		Clock:      clock.Now,
		OnComplete: func(streamrecon.Completion) {
			if hold.CompareAndSwap(true, false) {
				close(entered)
				<-held
			}
		},
	})
	sh, err := telemetry.NewShipper(telemetry.ShipperConfig{
		Addr:          node.Addr(),
		Process:       topology.Process{ID: "p", Processor: topology.Processor{ID: "p", Type: "x86"}},
		FlushInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	gen := &uuid.SequentialGenerator{Seed: 5}
	var recs []probe.Record
	for i := 0; i < 20; i++ {
		recs = append(recs, chainRecords(gen.NewUUID(), gen.NewUUID())...)
	}
	for _, r := range recs {
		sh.Append(r)
	}
	waitFor(t, func() bool { return sh.Stats().Shipped == uint64(len(recs)) }, "the open chains acknowledged")
	node.srv.Quiesce(func() {})

	// The chains go quiet; the next frame's arrival evicts them inside its
	// apply, which the first OnComplete holds.
	clock.Add(time.Minute)
	hold.Store(true)
	last := chainRecords(gen.NewUUID(), gen.NewUUID())
	sh.AppendSpan(last) // one frame
	recs = append(recs, last...)
	<-entered
	waitFor(t, func() bool { return sh.Stats().Shipped == uint64(len(recs)) }, "the last frame acknowledged while its apply is held")
	abandoned := make(chan struct{})
	go func() { abandon(node); close(abandoned) }() // returns once the apply does

	reborn, store := openDiskNode(t, dir, streamrecon.Config{})
	defer store.Close()
	if err := reborn.Close(); err != nil {
		t.Fatal(err)
	}
	requireHeld(t, store, recs)
	if store.Len() != len(recs) {
		t.Fatalf("store holds %d records, want the %d acknowledged", store.Len(), len(recs))
	}
	if led := reborn.Ledger(); !led.Balanced() {
		t.Fatalf("reborn ledger %s", led)
	}
	release()
	<-abandoned
}

// TestJournalTornTail: a kill can cut the frame being written. Cut at
// every byte of the last frame, the journal still replays every whole
// frame, reports the cut once, and the node starts.
func TestJournalTornTail(t *testing.T) {
	gen := &uuid.SequentialGenerator{Seed: 7}
	var whole []probe.Record
	stream := []byte(probe.StreamMagic)
	for i := 0; i < 3; i++ {
		recs := chainRecords(gen.NewUUID(), gen.NewUUID())
		whole = append(whole, recs...)
		stream = appendFrame(stream, probe.EncodeFrame(recs))
	}
	lastStart := len(stream)
	last := chainRecords(gen.NewUUID(), gen.NewUUID())[:1]
	stream = appendFrame(stream, probe.EncodeFrame(last))

	for cut := lastStart + 1; cut < len(stream); cut++ {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "journal"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "journal", "000001"+journalSuffix), stream[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		node, store := openDiskNode(t, dir, streamrecon.Config{})
		if w := node.Warnings(); len(w) != 1 || !strings.Contains(w[0], "torn tail after 3 frame(s)") {
			t.Fatalf("cut at %d: warnings %q, want one torn tail after 3 frames", cut, w)
		}
		requireHeld(t, store, whole)
		if store.Len() != len(whole) {
			t.Fatalf("cut at %d: store holds %d records, want the %d of the whole frames", cut, store.Len(), len(whole))
		}
		if left := journalNames(t, dir); len(left) != 1 || left[0] != fmt.Sprintf("000002%s", journalSuffix) {
			t.Fatalf("cut at %d: journal holds %v, want only the new file", cut, left)
		}
		node.Close()
		store.Close()
	}
}

func appendFrame(stream, body []byte) []byte {
	n := len(body)
	return append(append(stream, byte(n), byte(n>>8), byte(n>>16), byte(n>>24)), body...)
}

// TestJournalRetirement: a journal file outlives its generation for as long
// as a chain with a record in it stays in the table — here across two
// rotations — and goes, after a store flush, at the first Tick that finds
// the chain gone. A clean drain leaves the journal empty.
func TestJournalRetirement(t *testing.T) {
	dir := t.TempDir()
	clock := &fakeClock{now: time.Unix(1000, 0)}
	node, store := openDiskNode(t, dir, streamrecon.Config{
		Quiescence: 100 * time.Millisecond,
		StaleAfter: time.Second,
		Clock:      clock.Now,
	})
	defer store.Close()

	// Chain A is one call with a nested call inside it: eight events, sent
	// one per 400ms step, so it is never idle for StaleAfter.
	gen := &uuid.SequentialGenerator{Seed: 9}
	a := gen.NewUUID()
	var calls []probe.Record
	for i, e := range []ftl.Event{ftl.StubStart, ftl.SkelStart, ftl.StubStart, ftl.SkelStart, ftl.SkelEnd, ftl.StubEnd, ftl.SkelEnd, ftl.StubEnd} {
		calls = append(calls, probe.Record{
			Kind: probe.KindEvent, Process: "p", ProcType: "x86",
			Chain: a, Seq: uint64(i + 1), Event: e,
			Op: probe.OpID{Interface: "I", Operation: "op"},
		})
	}
	short := chainRecords(gen.NewUUID(), gen.NewUUID())
	ship(t, node.Addr(), append([]probe.Record{calls[0]}, short...))

	step := func() {
		clock.Add(400 * time.Millisecond)
		node.Tick()
	}
	for i := 1; i <= 5; i++ {
		step() // the first rotation comes at the third step
		ship(t, node.Addr(), calls[i:i+1])
	}
	step() // the second rotation
	if names := journalNames(t, dir); len(names) != 3 {
		t.Fatalf("journal holds %v: want both rotated files kept while chain A is open, and the current one", names)
	}
	ship(t, node.Addr(), calls[6:])
	step() // chain A leaves the table, and with it the last hold on both files
	if names := journalNames(t, dir); len(names) != 1 || names[0] != "000003"+journalSuffix {
		t.Fatalf("journal holds %v after chain A left, want only the current file", names)
	}
	if node.Table().OpenChains() != 0 {
		t.Fatal("chain A still open")
	}

	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	if names := journalNames(t, dir); len(names) != 0 {
		t.Fatalf("journal holds %v after a clean drain", names)
	}
	requireHeld(t, store, append(calls, short...))
	if led := node.Ledger(); !led.Balanced() || led.Persisted != uint64(len(calls)+len(short)) {
		t.Fatalf("ledger %s", led)
	}
}

// TestJournalKillUnderLoad: shippers keep acknowledging frames while the
// table ticks — chains leave for the store, the journal rotates and
// retires files behind them — and then the node is killed. Whatever the
// interleaving, every acknowledged record is in the store after the
// reopened node replays its journal and drains.
func TestJournalKillUnderLoad(t *testing.T) {
	dir := t.TempDir()
	clock := &fakeClock{now: time.Unix(1000, 0)}
	node, _ := openDiskNode(t, dir, streamrecon.Config{
		Quiescence: 100 * time.Millisecond,
		StaleAfter: time.Second,
		Clock:      clock.Now,
	})

	stop, ticked := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ticked)
		for {
			select {
			case <-stop:
				return
			default:
			}
			clock.Add(300 * time.Millisecond)
			node.Tick()
			time.Sleep(time.Millisecond)
		}
	}()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		sent []probe.Record
	)
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			gen := &uuid.SequentialGenerator{Seed: seed}
			sh, err := telemetry.NewShipper(telemetry.ShipperConfig{
				Addr:          node.Addr(),
				Process:       topology.Process{ID: fmt.Sprint("p", seed), Processor: topology.Processor{ID: "p", Type: "x86"}},
				FlushInterval: time.Millisecond,
			})
			if err != nil {
				t.Error(err)
				return
			}
			defer sh.Close()
			var recs []probe.Record
			for i := 0; i < 200; i++ {
				for _, r := range chainRecords(gen.NewUUID(), gen.NewUUID()) {
					sh.Append(r)
					recs = append(recs, r)
				}
				if i%20 == 19 {
					time.Sleep(2 * time.Millisecond)
				}
			}
			for deadline := time.Now().Add(10 * time.Second); sh.Stats().Shipped != uint64(len(recs)); {
				if time.Now().After(deadline) {
					t.Errorf("shipper %d: %d of %d records acknowledged", seed, sh.Stats().Shipped, len(recs))
					return
				}
				time.Sleep(time.Millisecond)
			}
			mu.Lock()
			sent = append(sent, recs...)
			mu.Unlock()
		}(uint64(100 + s))
	}
	wg.Wait()
	close(stop)
	<-ticked
	abandon(node)
	if t.Failed() {
		return
	}
	node.jrn.mu.Lock()
	started, kept := node.jrn.curN, len(node.jrn.closed)
	node.jrn.mu.Unlock()
	if retired := started - 1 - kept; started < 3 || retired < 1 {
		t.Fatalf("the journal started %d files and retired %d: the run never rotated and retired under load", started, retired)
	}

	reborn, store := openDiskNode(t, dir, streamrecon.Config{})
	defer store.Close()
	if err := reborn.Close(); err != nil {
		t.Fatal(err)
	}
	requireHeld(t, store, sent)
}
