package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"causeway/internal/logdb"
	"causeway/internal/telemetry"
	"causeway/internal/topology"
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
	waitFor(t, func() bool { return store.Len() == 2 }, "live ingest")

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
	cases := []struct {
		name    string
		status  int
		body    func(w io.Writer)
		want    Ledger
		wantErr bool
	}{
		{name: "well-formed", status: 200,
			body: func(w io.Writer) {
				io.WriteString(w, `{"appended":5,"persisted":3,"discarded":0,"shed":0,"buffered":0,"replayed":1,"retired":3,"no_owner":0}`)
			},
			want: Ledger{Appended: 5, Persisted: 3, Replayed: 1, Retired: 3}},
		{name: "truncated", status: 200, wantErr: true,
			body: func(w io.Writer) { io.WriteString(w, `{"appended":5,"persis`) }},
		{name: "empty body", status: 200, wantErr: true,
			body: func(w io.Writer) {}},
		{name: "non-200", status: 503, wantErr: true,
			body: func(w io.Writer) { io.WriteString(w, `{"appended":0}`) }},
		{name: "not JSON", status: 200, wantErr: true,
			body: func(w io.Writer) { io.WriteString(w, "causeway_cluster_ledger_appended_total 5\n") }},
		{name: "negative bucket", status: 200, wantErr: true,
			body: func(w io.Writer) { io.WriteString(w, `{"appended":-1}`) }},
		{name: "non-numeric bucket", status: 200, wantErr: true,
			body: func(w io.Writer) { io.WriteString(w, `{"appended":"many"}`) }},
		{name: "fractional bucket", status: 200, wantErr: true,
			body: func(w io.Writer) { io.WriteString(w, `{"appended":1.5}`) }},
		{name: "overflowing bucket", status: 200, wantErr: true,
			body: func(w io.Writer) { io.WriteString(w, `{"appended":99999999999999999999999}`) }},
		{name: "unknown field", status: 200, wantErr: true,
			body: func(w io.Writer) { io.WriteString(w, `{"appended":1,"persisted":1,"evaporated":7}`) }},
		{name: "wrong shape", status: 200, wantErr: true,
			body: func(w io.Writer) { io.WriteString(w, `[1,2,3]`) }},
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
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/ledgerz" {
					http.NotFound(w, r)
					return
				}
				w.WriteHeader(tc.status)
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
