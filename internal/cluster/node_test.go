package cluster

import (
	"cmp"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"causeway/internal/logdb"
	"causeway/internal/pps"
	"causeway/internal/probe"
	"causeway/internal/streamrecon"
	"causeway/internal/telemetry"
	"causeway/internal/topology"
	"causeway/internal/transport"
	"causeway/internal/uuid"
)

// A record the collector already ingested live — an ingested-but-unacked
// frame the shipper retried to the new owner — and then receives again in
// the donor's replay must be held once. The memory backend used to take
// it twice: its replay path deduplicated only against earlier replays.
func TestReplayIntoMemoryStoreDedupsLiveRecords(t *testing.T) {
	store := logdb.NewStore()
	node, err := StartNode(NodeConfig{Listen: "127.0.0.1:0", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	gen := &uuid.SequentialGenerator{Seed: 77}
	chain := gen.NewUUID()
	recs := chainRecords(chain, gen.NewUUID())

	// Two of the chain's three records arrive live.
	sh, err := telemetry.NewShipper(telemetry.ShipperConfig{
		Addr:    node.Addr(),
		Process: topology.Process{ID: "p", Processor: topology.Processor{ID: "p", Type: "x86"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sh.Append(recs[0])
	sh.Append(recs[1])
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return node.Ledger().Appended == 2 }, "live ingest")

	// The donor held the whole chain and replays all of it.
	donor := logdb.NewStore()
	donor.Insert(recs...)
	res, err := Replay(ReplayConfig{Source: donor, Range: func(uuid.UUID) bool { return true }, Target: node.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 3 || res.Accepted != 1 || res.Rejected != 2 {
		t.Fatalf("replay over live records: %+v, want 1 of 3 accepted", res)
	}
	seen := make(map[uint64]bool)
	for _, r := range store.Events(chain) {
		if seen[r.Seq] {
			t.Fatalf("chain holds seq %d twice: %+v", r.Seq, store.Events(chain))
		}
		seen[r.Seq] = true
	}
	if store.Len() != 3 || len(store.Links()) != 1 {
		t.Fatalf("store holds %d records (%d links), want 3 (1)", store.Len(), len(store.Links()))
	}
	led := node.Ledger()
	want := Ledger{Appended: 2, Replayed: 1, Persisted: 3}
	if led != want || !led.Balanced() {
		t.Fatalf("node ledger %s, want %s", led, want)
	}
}

// The node's debug handlers before and after the things they expose
// exist: no ring is a 404 (causectl reads it as "standalone"), membership
// endpoints answer 503 until StartMembership, and /ledgerz round-trips
// through FetchLedger to exactly Node.Ledger.
func TestNodeHandlers(t *testing.T) {
	node, err := StartNode(NodeConfig{Listen: "127.0.0.1:0", Store: logdb.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	mux := http.NewServeMux()
	for path, h := range node.Handlers() {
		mux.HandleFunc(path, h)
	}
	dbg := httptest.NewServer(mux)
	defer dbg.Close()
	addr := strings.TrimPrefix(dbg.URL, "http://")

	status := func(path string) int {
		resp, err := http.Get(dbg.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/ringz"); got != http.StatusNotFound {
		t.Fatalf("/ringz with no ring: %d, want 404", got)
	}
	if got := status("/memberz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/memberz before StartMembership: %d, want 503", got)
	}
	if _, err := FetchMemberz(dbg.Client(), addr); err == nil {
		t.Fatal("FetchMemberz decoded a 503")
	}

	ring, err := Assign(4, DefaultSlots, Members(node.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	node.SetRing(ring)
	stale := ring
	stale.Epoch = 3
	node.SetRing(stale)
	if got := node.Ring().Epoch; got != 4 {
		t.Fatalf("a stale ring replaced the served one: epoch %d", got)
	}
	if got := status("/ringz"); got != http.StatusOK {
		t.Fatalf("/ringz with a ring: %d", got)
	}

	if err := node.StartMembership(MembershipConfig{
		Members:    Members(node.Addr()),
		DebugAddrs: map[string]string{node.Addr(): addr},
	}); err != nil {
		t.Fatal(err)
	}
	st, err := FetchMemberz(dbg.Client(), addr)
	if err != nil || st.Self != node.ID() {
		t.Fatalf("/memberz after StartMembership: %+v, %v", st, err)
	}
	led, err := FetchLedger(dbg.Client(), addr)
	if err != nil || led != node.Ledger() {
		t.Fatalf("FetchLedger = %s, %v; node says %s", led, err, node.Ledger())
	}
}

// FetchLedger is the one decoder the typed ledger adds, and it reads a
// peer's socket: whatever arrives, it returns an error or a value, never
// panics, and never hands back a ledger that reports Balanced from a
// failed decode.
func TestFetchLedgerHostileInput(t *testing.T) {
	// A nil body serves the case's ledgerReplies entry.
	cases := []struct {
		name    string
		status  int
		body    func(w io.Writer)
		want    Ledger
		wantErr bool
	}{
		{name: "well-formed", status: 200, want: Ledger{Appended: 5, Persisted: 3, Replayed: 1, Retired: 3}},
		{name: "truncated", status: 200, wantErr: true},
		{name: "empty body", status: 200, wantErr: true},
		{name: "non-200", status: 503, wantErr: true},
		{name: "not JSON", status: 200, wantErr: true},
		{name: "negative bucket", status: 200, wantErr: true},
		{name: "non-numeric bucket", status: 200, wantErr: true},
		{name: "fractional bucket", status: 200, wantErr: true},
		{name: "overflowing bucket", status: 200, wantErr: true},
		{name: "unknown field", status: 200, wantErr: true},
		{name: "wrong shape", status: 200, wantErr: true},
		{name: "10 MB body", status: 200, wantErr: true,
			body: func(w io.Writer) {
				// A valid ledger buried behind megabytes of padding: the
				// bounded read must give up, not buffer it.
				io.WriteString(w, `{"appended":1,"persisted":1,`)
				pad := strings.Repeat(" ", 1<<20)
				for i := 0; i < 10; i++ {
					io.WriteString(w, pad)
				}
				io.WriteString(w, `"shed":0}`)
			}},
	}
	replies := ledgerReplies()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/ledgerz" {
					http.NotFound(w, r)
					return
				}
				w.WriteHeader(tc.status)
				if tc.body == nil {
					io.WriteString(w, replies[tc.name])
					return
				}
				tc.body(w)
			}))
			defer srv.Close()
			led, err := FetchLedger(srv.Client(), strings.TrimPrefix(srv.URL, "http://"))
			if tc.wantErr {
				if err == nil {
					t.Fatalf("decoded %s without error", led)
				}
				if led.Balanced() {
					t.Fatalf("failed fetch (%v) returned a balanced ledger: %s", err, led)
				}
				return
			}
			if err != nil || led != tc.want {
				t.Fatalf("FetchLedger = %s, %v; want %s", led, err, tc.want)
			}
		})
	}

	t.Run("unreachable", func(t *testing.T) {
		srv := httptest.NewServer(http.NotFoundHandler())
		addr := strings.TrimPrefix(srv.URL, "http://")
		srv.Close()
		led, err := FetchLedger(http.DefaultClient, addr)
		if err == nil || led.Balanced() {
			t.Fatalf("dead peer: %s, %v", led, err)
		}
	})
	// A tier summed over a failed fetch must not balance either, should a
	// caller drop the error.
	if tier := Sum(Ledger{Appended: 1, Persisted: 1}, unknownLedger); tier.Balanced() {
		t.Fatalf("tier with an unread member balances: %s", tier)
	}
}

// A streaming node's chain table is the one sink on its telemetry server,
// and it parses a chain in full only when the chain still parks records at
// quiescence: fed the PPS workload with every chain in seq order, it
// judges exactly the chains a retry renumbered past a seq gap — one here —
// and evicts the rest on the verdicts their closed roots left.
func TestStreamingNodeParsesOnlyGappedChains(t *testing.T) {
	pipeline, err := pps.Build(pps.Options{
		Network:      transport.NewInprocNetwork(),
		Layout:       pps.FourProcess(),
		Instrumented: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pipeline.Shutdown()
	if err := pipeline.RunJobs(4, 2, true); err != nil {
		t.Fatal(err)
	}
	if err := pipeline.AwaitQuiescent(4, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	recs := pipeline.Records()
	slices.SortStableFunc(recs, func(a, b probe.Record) int { return cmp.Compare(a.Seq, b.Seq) })
	// A retried call: one chain's records from its third on renumbered at
	// the ORB's seq stride.
	retried := recs[len(recs)-1].Chain
	for i := range recs {
		if recs[i].Kind == probe.KindEvent && recs[i].Chain == retried && recs[i].Seq >= 3 {
			recs[i].Seq += 4096
		}
	}
	gapped := make(map[uuid.UUID]bool)
	next := make(map[uuid.UUID]uint64)
	for _, r := range recs {
		if r.Kind == probe.KindEvent {
			gapped[r.Chain] = gapped[r.Chain] || r.Seq > next[r.Chain]+1
			next[r.Chain] = r.Seq
		}
	}
	wantJudged := 0
	for _, g := range gapped {
		if g {
			wantJudged++
		}
	}
	if wantJudged != 1 {
		t.Fatalf("%d chains have a seq gap, want the one retried", wantJudged)
	}

	clock := time.Unix(1000, 0)
	var clockMu sync.Mutex
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	store := logdb.NewStore()
	node, err := StartNode(NodeConfig{
		Listen: "127.0.0.1:0",
		Store:  store,
		Table:  streamrecon.Config{Quiescence: 100 * time.Millisecond, Clock: now},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	sh, err := telemetry.NewShipper(telemetry.ShipperConfig{
		Addr:    node.Addr(),
		Process: topology.Process{ID: "pps", Processor: topology.Processor{ID: "pps", Type: "x86"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		sh.Append(r)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	table := node.Table()
	waitFor(t, func() bool { return table.Ledger().Appended == uint64(len(recs)) }, "ingest")
	clockMu.Lock()
	clock = clock.Add(time.Second)
	clockMu.Unlock()
	table.Tick()

	if open := table.OpenChains(); open != 0 {
		t.Fatalf("%d chains still open after quiescence", open)
	}
	var metrics strings.Builder
	node.WriteMetrics(&metrics)
	want := fmt.Sprintf("causeway_assembler_chains_judged_total %d\n", wantJudged)
	if !strings.Contains(metrics.String(), want) {
		t.Fatalf("metrics lack %q:\n%s", want, metrics.String())
	}
	if led := node.Ledger(); !led.Balanced() || led.Persisted != uint64(len(recs)) || store.Len() != len(recs) {
		t.Fatalf("ledger %s, store holds %d of %d records", led, store.Len(), len(recs))
	}
	if n := table.Completions(); n != uint64(len(gapped)) {
		t.Fatalf("%d completions for %d chains", n, len(gapped))
	}
}
