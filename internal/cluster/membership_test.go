package cluster

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"causeway/internal/telemetry"
	"causeway/internal/uuid"
)

// fakeFleet wires memberships together in-process: probes consult a
// shared down-set, views read peers' memberships directly, and ledgers
// come from per-member closures. Tests drive tick() by hand (the loop
// sleeps on an hour-long interval), so every heartbeat, proposal,
// adoption, and settle step is deterministic.
type fakeFleet struct {
	mu      sync.Mutex
	down    map[string]bool
	views   map[string]*Membership
	ledgers map[string]func() Ledger
	events  []string
}

func newFakeFleet() *fakeFleet {
	return &fakeFleet{
		down:    make(map[string]bool),
		views:   make(map[string]*Membership),
		ledgers: make(map[string]func() Ledger),
	}
}

func (f *fakeFleet) probe(debug string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.down[debug] && f.views[debug] != nil
}

func (f *fakeFleet) view(debug string) (telemetry.Ring, error) {
	f.mu.Lock()
	m := f.views[debug]
	dead := f.down[debug]
	f.mu.Unlock()
	if dead || m == nil {
		return telemetry.Ring{}, errUnreachable
	}
	return m.Ring(), nil
}

func (f *fakeFleet) ledger(debug string) (Ledger, error) {
	f.mu.Lock()
	fn := f.ledgers[debug]
	dead := f.down[debug]
	f.mu.Unlock()
	if dead {
		return Ledger{}, errUnreachable
	}
	if fn == nil {
		return Ledger{}, nil
	}
	return fn(), nil
}

func (f *fakeFleet) record(ev string) {
	f.mu.Lock()
	f.events = append(f.events, ev)
	f.mu.Unlock()
}

func (f *fakeFleet) eventsContain(sub string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, e := range f.events {
		if strings.Contains(e, sub) {
			return true
		}
	}
	return false
}

func (f *fakeFleet) dump() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return strings.Join(f.events, "\n")
}

var errUnreachable = &unreachableErr{}

type unreachableErr struct{}

func (*unreachableErr) Error() string { return "peer unreachable" }

// newFleetMember builds one membership on the fake fleet with a huge
// interval, so only explicit tick() calls advance the state machine.
func newFleetMember(t *testing.T, f *fakeFleet, self string, universe []telemetry.RingMember, store Store) *Membership {
	t.Helper()
	debugs := make(map[string]string, len(universe))
	for _, u := range universe {
		debugs[u.ID] = u.ID
	}
	m, err := NewMembership(MembershipConfig{
		Self:         self,
		Members:      universe,
		DebugAddrs:   debugs,
		Interval:     time.Hour,
		SuspectAfter: 3,
		Store:        store,
		Probe:        f.probe,
		FetchView:    f.view,
		Ledgers:      f.ledger,
		OnEvent:      func(ev string) { f.record(self + ": " + ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	f.mu.Lock()
	f.views[self] = m
	f.mu.Unlock()
	return m
}

func ringIDs(r telemetry.Ring) string {
	ids := make([]string, len(r.Members))
	for i, m := range r.Members {
		ids[i] = m.ID
	}
	return strings.Join(ids, ",")
}

func memberState(t *testing.T, m *Membership, id string) MemberHealth {
	t.Helper()
	for _, h := range m.Status().Members {
		if h.ID == id {
			return h
		}
	}
	t.Fatalf("member %s missing from status", id)
	return MemberHealth{}
}

// TestMembershipStateMachineAndProposal walks the full lifecycle with
// hand-driven ticks: miss -> suspect -> dead -> lowest-ID proposal of
// epoch N+1 -> peer adoption -> proposer settle, then heartbeat
// recovery folding the member back in at epoch N+2.
func TestMembershipStateMachineAndProposal(t *testing.T) {
	f := newFakeFleet()
	universe := Members("a", "b", "c")
	a := newFleetMember(t, f, "a", universe, nil)
	b := newFleetMember(t, f, "b", universe, nil)
	c := newFleetMember(t, f, "c", universe, nil)

	if got := ringIDs(a.Ring()); got != "a,b,c" || a.Ring().Epoch != 1 {
		t.Fatalf("initial ring: epoch %d members %s", a.Ring().Epoch, got)
	}

	// b dies. One miss marks it suspect; the ring must NOT change yet.
	b.Close()
	f.mu.Lock()
	f.down["b"] = true
	f.mu.Unlock()
	a.tick()
	if h := memberState(t, a, "b"); h.State != StateSuspect || h.Misses != 1 || h.StateFor == "" {
		t.Fatalf("after one miss: %+v", h)
	}
	if a.Ring().Epoch != 1 {
		t.Fatal("suspect member already evicted from the ring")
	}
	// Two more misses cross the threshold: dead, and a — the lowest
	// healthy ID — proposes epoch 2 without b.
	a.tick()
	a.tick()
	if h := memberState(t, a, "b"); h.State != StateDead {
		t.Fatalf("after three misses: %+v", h)
	}
	if got := a.Ring(); got.Epoch != 2 || ringIDs(got) != "a,c" {
		t.Fatalf("proposal did not fire: epoch %d members %s", got.Epoch, ringIDs(got))
	}
	if !f.eventsContain("a: proposing epoch 2") {
		t.Fatalf("missing proposal event:\n%s", f.dump())
	}

	// c has not ticked: it still serves epoch 1, then adopts 2 from a.
	if c.Ring().Epoch != 1 {
		t.Fatal("c advanced without ticking")
	}
	c.tick()
	if got := c.Ring(); got.Epoch != 2 || ringIDs(got) != "a,c" {
		t.Fatalf("c failed to adopt: epoch %d members %s", got.Epoch, ringIDs(got))
	}

	// The proposer settles the epoch: every ring member's ledger sums
	// balanced with sum(Replayed) == sum(Retired).
	a.tick()
	st := a.Status()
	if !st.Settled || st.Settling || !strings.Contains(st.Verdict, "epoch 2 settled") {
		t.Fatalf("epoch 2 did not settle: %+v", st)
	}
	if st.Proposer != "a" {
		t.Fatalf("proposer = %s, want a", st.Proposer)
	}

	// b restarts: fresh process, boot ring at epoch 1. Its first tick
	// adopts the tier's epoch 2 (it is not a member there), and a's
	// next heartbeat sees it healthy and proposes epoch 3 with b back.
	f.mu.Lock()
	f.down["b"] = false
	delete(f.views, "b")
	f.mu.Unlock()
	b2 := newFleetMember(t, f, "b", universe, nil)
	b2.tick()
	if got := b2.Ring(); got.Epoch != 2 || ringIDs(got) != "a,c" {
		t.Fatalf("reborn b failed to adopt the tier ring: epoch %d members %s", got.Epoch, ringIDs(got))
	}
	a.tick()
	if h := memberState(t, a, "b"); h.State != StateHealthy {
		t.Fatalf("recovery not detected: %+v", h)
	}
	if got := a.Ring(); got.Epoch != 3 || ringIDs(got) != "a,b,c" {
		t.Fatalf("rejoin proposal did not fire: epoch %d members %s", got.Epoch, ringIDs(got))
	}
	b2.tick()
	c.tick()
	if b2.Ring().Epoch != 3 || c.Ring().Epoch != 3 {
		t.Fatalf("rejoin ring not adopted: b=%d c=%d", b2.Ring().Epoch, c.Ring().Epoch)
	}
	a.tick()
	if st := a.Status(); !st.Settled || !strings.Contains(st.Verdict, "epoch 3 settled") {
		t.Fatalf("epoch 3 did not settle: %+v", st)
	}
	for _, want := range []string{"healthy -> suspect", "suspect -> dead", "dead -> healthy"} {
		if !f.eventsContain(want) {
			t.Fatalf("missing %q event:\n%s", want, f.dump())
		}
	}
}

// TestMembershipRejoinDonatesMovedRanges runs the donation half
// against real telemetry servers and trace stores: a member dies, the
// survivor absorbs the ring and keeps ingesting, and the automated
// rejoin epoch makes the survivor replay exactly the rejoined member's
// ranges back — retiring what the receiver accepted, settling the
// epoch, and staying idempotent when the rebalance is re-driven
// manually.
func TestMembershipRejoinDonatesMovedRanges(t *testing.T) {
	srvA, storeA := startReplayTarget(t, t.TempDir())
	srvB, storeB := startReplayTarget(t, t.TempDir())
	addrA, addrB := srvA.Addr(), srvB.Addr()
	universe := Members(addrA, addrB)
	// The proposer is the lexicographically lowest address; make the
	// OTHER one the victim so the survivor drives both epochs.
	survivor, victim := addrA, addrB
	survivorStore := storeA
	victimSrv, victimStore := srvB, storeB
	if addrB < addrA {
		survivor, victim = addrB, addrA
		survivorStore = storeB
		victimSrv, victimStore = srvA, storeA
	}

	f := newFakeFleet()
	appended := make(map[string]uint64)
	var appendedMu sync.Mutex
	servers := map[string]*telemetry.Server{addrA: srvA, addrB: srvB}
	mkLedger := func(id string) func() Ledger {
		return func() Ledger {
			appendedMu.Lock()
			app := appended[id]
			appendedMu.Unlock()
			led := Ledger{Appended: app, Persisted: app}
			led.Replayed = servers[id].Stats().Replayed
			led.Persisted += led.Replayed
			f.mu.Lock()
			m := f.views[id]
			f.mu.Unlock()
			if m != nil {
				led = led.Retire(m.Status().Retired)
			}
			return led
		}
	}
	f.ledgers[addrA] = mkLedger(addrA)
	f.ledgers[addrB] = mkLedger(addrB)

	mS := newFleetMember(t, f, survivor, universe, survivorStore)
	mV := newFleetMember(t, f, victim, universe, victimStore)
	ring1 := mS.Ring()

	// Victim dies; survivor shrinks the ring to itself at epoch 2.
	mV.Close()
	f.mu.Lock()
	f.down[victim] = true
	f.mu.Unlock()
	mS.tick()
	mS.tick()
	mS.tick()
	if got := mS.Ring(); got.Epoch != 2 || ringIDs(got) != survivor {
		t.Fatalf("death proposal: epoch %d members %s", got.Epoch, ringIDs(got))
	}

	// Outage-era ingest: everything lands on the survivor, including
	// chains the victim's span will own again after the rejoin.
	gen := &uuid.SequentialGenerator{Seed: 99}
	total, expectMoved := 0, 0
	for i := 0; i < 200; i++ {
		chain := gen.NewUUID()
		recs := chainRecords(chain, gen.NewUUID())
		survivorStore.Insert(recs...)
		total += len(recs)
		// The link record routes by its parent chain, so all of a
		// chain's records move (or stay) together.
		if owner, ok := ring1.OwnerOf(chain); ok && owner.ID == victim {
			expectMoved += len(recs)
		}
	}
	appendedMu.Lock()
	appended[survivor] = uint64(total)
	appendedMu.Unlock()
	if expectMoved == 0 {
		t.Fatal("degenerate workload: no chain maps to the victim's span")
	}

	// Victim restarts with its boot-time view; it adopts epoch 2 (not
	// a member — its segments stay put, no churn out and back).
	f.mu.Lock()
	f.down[victim] = false
	delete(f.views, victim)
	f.mu.Unlock()
	mV2 := newFleetMember(t, f, victim, universe, victimStore)
	mV2.tick()
	if got := mV2.Ring(); got.Epoch != 2 {
		t.Fatalf("reborn victim did not adopt epoch 2: %d", got.Epoch)
	}

	// The survivor's next heartbeat folds it back in at epoch 3 and
	// donates the moved ranges automatically — and, being the
	// proposer, asserts the tier ledger before declaring it settled.
	mS.tick()
	if got := mS.Ring(); got.Epoch != 3 || ringIDs(got) != ringIDs(ring1) {
		t.Fatalf("rejoin proposal: epoch %d members %s", got.Epoch, ringIDs(got))
	}
	if got := victimStore.Len(); got != expectMoved {
		t.Fatalf("victim received %d replayed records, want %d", got, expectMoved)
	}
	if got := mS.Status().Retired; got != uint64(expectMoved) {
		t.Fatalf("survivor retired %d, want %d", got, expectMoved)
	}
	if got := victimSrv.Stats().Replayed; got != uint64(expectMoved) {
		t.Fatalf("victim server replayed %d, want %d", got, expectMoved)
	}
	st := mS.Status()
	if !st.Settled || !strings.Contains(st.Verdict, "settled") || !strings.Contains(st.Verdict, "sum(Replayed)==sum(Retired)") {
		t.Fatalf("epoch 3 not settled: %+v", st)
	}

	// The victim's own adoption of epoch 3 moves nothing: its base
	// ring (boot) and the rejoin ring assign it the same spans.
	mV2.tick()
	if got := mV2.Status().Retired; got != 0 {
		t.Fatalf("rejoined member donated %d records from an unchanged span", got)
	}
	if got := victimStore.Len(); got != expectMoved {
		t.Fatalf("victim store changed to %d after its adoption", got)
	}

	// Resume semantics: pretend the donation crashed after the records
	// landed but before the base advanced — the manual rebalance scans
	// the range again, the receiver rejects every record as a
	// duplicate, and nothing retires twice.
	staleBase, err := Assign(2, 0, Members(survivor))
	if err != nil {
		t.Fatal(err)
	}
	mS.mu.Lock()
	mS.base = staleBase
	mS.mu.Unlock()
	res := mS.Rebalance()
	if res.Retired != 0 {
		t.Fatalf("resumed rebalance retired %d records twice", res.Retired)
	}
	var rescanned, rejected uint64
	for _, d := range res.Donations {
		rescanned += d.Scanned
		rejected += d.Rejected
	}
	if rescanned != uint64(expectMoved) || rejected != uint64(expectMoved) {
		t.Fatalf("resumed rebalance scanned=%d rejected=%d, want %d/%d", rescanned, rejected, expectMoved, expectMoved)
	}
	if !res.Settled || mS.Status().Retired != uint64(expectMoved) {
		t.Fatalf("resumed rebalance broke settling: %+v", res)
	}

	// The HTTP faces round-trip the same state.
	hs := httptest.NewServer(http.HandlerFunc(mS.ServeMemberz))
	defer hs.Close()
	view, err := FetchMemberz(hs.Client(), strings.TrimPrefix(hs.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	if view.Epoch != 3 || !view.Settled || view.Self != survivor {
		t.Fatalf("memberz round-trip: %+v", view)
	}
	rb := httptest.NewServer(http.HandlerFunc(mS.ServeRebalance))
	defer rb.Close()
	if _, err := FetchMemberz(rb.Client(), strings.TrimPrefix(rb.URL, "http://")); err == nil {
		t.Fatal("GET on /rebalancez accepted")
	}
	post, err := PostRebalance(rb.Client(), strings.TrimPrefix(rb.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	if post.Epoch != 3 || post.Retired != 0 || !post.Settled {
		t.Fatalf("rebalancez round-trip: %+v", post)
	}
}
