package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"causeway/internal/ftl"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/streamrecon"
	"causeway/internal/telemetry"
	"causeway/internal/topology"
	"causeway/internal/tracestore"
	"causeway/internal/transport"
	"causeway/internal/uuid"
)

func TestAssignDeterministicAndValid(t *testing.T) {
	a, err := Assign(1, 64, Members("c:3", "a:1", "b:2"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Assign(1, 64, Members("b:2", "c:3", "a:1"))
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("assignment order-dependent:\n %s\n %s", a, b)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Members[0].ID != "a:1" || a.Members[2].End != 64 {
		t.Fatalf("unexpected layout: %s", a)
	}
	// Uneven split covers every slot.
	r, err := Assign(2, 8, Members("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Assign(1, 63, Members("a")); err == nil {
		t.Fatal("non-power-of-two slot count accepted")
	}
	if _, err := Assign(1, 64, Members("a", "a")); err == nil {
		t.Fatal("duplicate member accepted")
	}
	if _, err := Assign(1, 64, nil); err == nil {
		t.Fatal("empty member list accepted")
	}
}

func TestOwnershipPredicates(t *testing.T) {
	old, _ := Assign(1, 64, Members("a", "b", "c"))
	// b dies; its range splits between a and c.
	next, _ := Assign(2, 64, Members("a", "c"))
	movedToA := MovedTo(old, next, "a")
	movedToC := MovedTo(old, next, "c")
	gen := &uuid.SequentialGenerator{Seed: 7}
	moved, kept := 0, 0
	for i := 0; i < 512; i++ {
		u := gen.NewUUID()
		om, _ := old.OwnerOf(u)
		nm, _ := next.OwnerOf(u)
		if om.ID == nm.ID {
			kept++
			if movedToA(u) || movedToC(u) {
				t.Fatalf("unmoved chain %s flagged moved", u.Short())
			}
			continue
		}
		moved++
		if om.ID != "b" {
			t.Fatalf("chain %s moved from surviving member %s", u.Short(), om.ID)
		}
		if movedToA(u) == movedToC(u) {
			t.Fatalf("chain %s moved to both or neither", u.Short())
		}
		if !OwnedBy(next, nm.ID)(u) {
			t.Fatalf("OwnedBy disagrees with OwnerOf for %s", u.Short())
		}
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate rebalance: moved=%d kept=%d", moved, kept)
	}
}

// chainRecords synthesizes one chain: a balanced two-event call plus a
// link to a child chain.
func chainRecords(chain, child uuid.UUID) []probe.Record {
	ev := func(seq uint64, e ftl.Event) probe.Record {
		return probe.Record{
			Kind: probe.KindEvent, Process: "p", ProcType: "x86",
			Chain: chain, Seq: seq, Event: e,
			Op: probe.OpID{Interface: "I", Operation: "op"},
		}
	}
	return []probe.Record{
		ev(1, ftl.StubStart),
		{Kind: probe.KindLink, LinkParent: chain, LinkParentSeq: 1, LinkChild: child},
		ev(2, ftl.StubEnd),
	}
}

// ingestNode is a collector as cmd/collectd runs it — a Node — over a store
// in memory. It serves no ring until SetRing, and drains when the test ends.
type ingestNode struct {
	*Node
	store *logdb.Store
}

func startIngest(t *testing.T) ingestNode {
	t.Helper()
	store := logdb.NewStore()
	n, err := StartNode(NodeConfig{Listen: "127.0.0.1:0", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return ingestNode{Node: n, store: store}
}

// received is how many records the collector has taken off the wire.
func (n ingestNode) received() int { return int(n.srv.Stats().Records) }

func routerTemplate(proc string) telemetry.ShipperConfig {
	return telemetry.ShipperConfig{
		Process:       topology.Process{ID: proc, Processor: topology.Processor{ID: proc + "-cpu", Type: "x86"}},
		BufferSize:    4096,
		FlushInterval: 2 * time.Millisecond,
		BackoffMin:    5 * time.Millisecond,
		BackoffMax:    50 * time.Millisecond,
		DrainTimeout:  3 * time.Second,
		PollInterval:  5 * time.Millisecond,
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// Every chain must land whole — events and the links its parent span
// recorded — on exactly one collector, the one the ring names.
func TestRoutedShipperLandsChainsWhole(t *testing.T) {
	nodes := []ingestNode{startIngest(t), startIngest(t), startIngest(t)}
	addrs := []string{nodes[0].srv.Addr(), nodes[1].srv.Addr(), nodes[2].srv.Addr()}
	ring, err := Assign(1, 64, Members(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewRouted(RouterConfig{Ring: ring, Shipper: routerTemplate("p1")})
	if err != nil {
		t.Fatal(err)
	}

	gen := &uuid.SequentialGenerator{Seed: 11}
	const chains = 200
	want := make(map[string]int) // member addr -> expected records
	total := 0
	for i := 0; i < chains; i++ {
		chain, child := gen.NewUUID(), gen.NewUUID()
		recs := chainRecords(chain, child)
		owner, ok := ring.OwnerOf(chain)
		if !ok {
			t.Fatal("chain has no owner")
		}
		want[owner.Addr] += len(recs)
		total += len(recs)
		for _, r := range recs {
			rs.Append(r)
		}
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	st := rs.Combined()
	if st.Appended != uint64(total) || st.Shipped != uint64(total) || st.Dropped != 0 {
		t.Fatalf("combined stats = %+v, want %d appended+shipped", st, total)
	}
	for i, n := range nodes {
		if err := n.Close(); err != nil { // the chain table drains into the store
			t.Fatal(err)
		}
		if got := n.store.Len(); got != want[addrs[i]] {
			t.Fatalf("collector %d holds %d records, want %d", i, got, want[addrs[i]])
		}
		// Chain-atomicity: every chain present on this node is complete.
		for _, c := range n.store.Chains() {
			if evs := n.store.Events(c); len(evs) != 2 {
				t.Fatalf("collector %d holds a torn chain %s (%d events)", i, c.Short(), len(evs))
			}
			if _, ok := n.store.ChildChain(c, 1); !ok {
				t.Fatalf("collector %d missing the link for its chain %s", i, c.Short())
			}
		}
	}
}

// TestRoutedShipperAppendAllocFree pins the routed append at zero
// allocations on a warm ring, as telemetry's TestAppendAllocFree pins one
// shipper's: a chain hash, a ring lookup and the owner's ring-buffer push.
// The members are parked in an hour-long reconnect backoff so their
// background loops cannot contribute mallocs of their own.
func TestRoutedShipperAppendAllocFree(t *testing.T) {
	ring, err := Assign(1, DefaultSlots, Members("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	tmpl := routerTemplate("alloc")
	tmpl.BufferSize = 1 << 15
	tmpl.BackoffMin, tmpl.BackoffMax = time.Hour, time.Hour
	tmpl.DrainTimeout = 10 * time.Millisecond
	dialErr := errors.New("collector down")
	tmpl.Dial = func(string) (transport.Client, error) { return nil, dialErr }
	rs, err := NewRouted(RouterConfig{Ring: ring, Shipper: tmpl})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	// Let every member fail its first dial and settle into the backoff.
	time.Sleep(20 * time.Millisecond)

	gen := &uuid.SequentialGenerator{Seed: 42}
	var pool []probe.Record
	for len(pool) < 300 {
		pool = append(pool, chainRecords(gen.NewUUID(), gen.NewUUID())...)
	}
	i := 0
	if a := testing.AllocsPerRun(500, func() {
		rs.Append(pool[i%len(pool)])
		i++
	}); a != 0 {
		t.Fatalf("routed Append allocates %v per record, want 0", a)
	}
	if st := rs.Combined(); st.Appended == 0 {
		t.Fatalf("no record reached a member ring: %+v", st)
	}
}

// A routed shipper exposes every causeway_shipper_* series one shipper
// does, so dashboards read a process the same whatever it ships to. Its
// polls at a collector that serves no ring are not bad frames.
func TestRoutedShipperMetricsMatchShipper(t *testing.T) {
	node := startIngest(t)
	ring, err := Assign(0, DefaultSlots, Members(node.srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewRouted(RouterConfig{Ring: ring, Shipper: routerTemplate("p1")})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	recs := chainRecords(uuid.New(), uuid.New())
	rs.AppendSpan(recs)
	waitFor(t, func() bool { return rs.Combined().Shipped == uint64(len(recs)) }, "records shipped")
	time.Sleep(4 * routerTemplate("p1").PollInterval)

	var buf bytes.Buffer
	rs.WriteMetrics(&buf)
	got := make(map[string]string)
	for _, line := range strings.Split(buf.String(), "\n") {
		if name, value, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "causeway_shipper_") {
			got[name] = value
		}
	}
	want := map[string]string{
		"causeway_shipper_appended_total":   fmt.Sprint(len(recs)),
		"causeway_shipper_dropped_total":    "0",
		"causeway_shipper_shipped_total":    fmt.Sprint(len(recs)),
		"causeway_shipper_batches_total":    "",
		"causeway_shipper_bytes_total":      "",
		"causeway_shipper_reconnects_total": "0",
		"causeway_shipper_connected":        "1",
		"causeway_shipper_buffered":         "0",
	}
	if len(got) != len(want) {
		t.Fatalf("routed exposition has %d causeway_shipper_* series, want %d:\n%s", len(got), len(want), buf.String())
	}
	for name, v := range want {
		if g, ok := got[name]; !ok || (v != "" && g != v) {
			t.Fatalf("%s = %q (present %v), want %q:\n%s", name, g, ok, v, buf.String())
		}
	}
	if bad := node.srv.Stats().BadFrames; bad != 0 {
		t.Fatalf("standalone collector counted %d bad frame(s) from polls", bad)
	}
}

// A newer ring served by any member propagates through the handshake /
// polls and re-routes: records buffered toward a member that lost
// a range must reach the new owner, not the old one.
func TestRoutedShipperFollowsRebalance(t *testing.T) {
	a, b := startIngest(t), startIngest(t)
	ringAB, err := Assign(1, 64, Members(a.Addr(), b.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	a.SetRing(ringAB)
	b.SetRing(ringAB)

	rs, err := NewRouted(RouterConfig{Ring: ringAB, Shipper: routerTemplate("p1")})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	gen := &uuid.SequentialGenerator{Seed: 23}
	const chains = 100
	var all []probe.Record
	for i := 0; i < chains; i++ {
		all = append(all, chainRecords(gen.NewUUID(), gen.NewUUID())...)
	}
	for _, r := range all {
		rs.Append(r)
	}
	waitFor(t, func() bool {
		return a.received()+b.received() == len(all)
	}, "initial delivery across two collectors")

	// Rebalance: a takes the whole ring (b is leaving). Served by both
	// collectors; the router learns it from its polls.
	ringA, err := Assign(2, 64, Members(a.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	a.SetRing(ringA)
	b.SetRing(ringA)
	waitFor(t, func() bool { return rs.Ring().Epoch == 2 }, "rebalanced ring applied")

	// Everything appended now must land on a, regardless of chain hash.
	before := b.received()
	var second []probe.Record
	for i := 0; i < chains; i++ {
		second = append(second, chainRecords(gen.NewUUID(), gen.NewUUID())...)
	}
	for _, r := range second {
		rs.Append(r)
	}
	waitFor(t, func() bool {
		return a.received()+b.received() == len(all)+len(second)
	}, "post-rebalance delivery")
	if b.received() != before {
		t.Fatalf("collector b received %d records after losing its range", b.received()-before)
	}
	if st := rs.Stats(); st.Rebalances == 0 || st.NoOwner != 0 {
		t.Fatalf("router stats after rebalance: %+v", st)
	}
}

// A served ring whose member has no address is refused whole: the router
// keeps routing by the ring it has, rather than adopting one whose member
// it cannot dial and dropping that member's records as NoOwner.
func TestRoutedShipperRefusesRingWithoutAddr(t *testing.T) {
	node := startIngest(t)
	ring, err := Assign(1, 64, Members(node.srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewRouted(RouterConfig{Ring: ring, Shipper: routerTemplate("p1")})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	bad, err := Assign(2, 64, Members(node.srv.Addr(), "b:2"))
	if err != nil {
		t.Fatal(err)
	}
	bad.Members[1].Addr = ""
	rs.UpdateRing(bad)
	// The ring loop applies what it is offered within microseconds; give a
	// wrongly accepted ring ample time to land.
	time.Sleep(50 * time.Millisecond)

	gen := &uuid.SequentialGenerator{Seed: 5}
	var all []probe.Record
	for i := 0; i < 64; i++ {
		all = append(all, chainRecords(gen.NewUUID(), gen.NewUUID())...)
	}
	for _, r := range all {
		rs.Append(r)
	}
	waitFor(t, func() bool { return node.received()+int(rs.Stats().NoOwner) == len(all) }, "every record delivered or counted")
	if st := rs.Stats(); st.Ring.Epoch != 1 || st.Rebalances != 0 || st.NoOwner != 0 {
		t.Fatalf("after a ring with an addressless member: epoch %d, %d rebalances, %d records without owner; want 1, 0, 0",
			st.Ring.Epoch, st.Rebalances, st.NoOwner)
	}
}

// frameSpy notes the size of every InsertNew MergeStream makes.
type frameSpy struct {
	*logdb.Store
	calls []int
}

func (f *frameSpy) InsertNew(recs ...probe.Record) int {
	f.calls = append(f.calls, len(recs))
	return f.Store.InsertNew(recs...)
}

// A pulled /exportz body merges frame by frame — MergeStream never holds
// more of a peer's store than one frame. A body cut inside its seventh frame
// merges the six before it and reports the tear; the next full pull accepts
// only what the first one missed.
func TestMergeStreamPerFrame(t *testing.T) {
	const frames, perFrame = 10, 256
	peer := logdb.NewStore()
	gen := &uuid.SequentialGenerator{Seed: 41}
	for peer.Len() < frames*perFrame {
		peer.Insert(chainRecords(gen.NewUUID(), gen.NewUUID())...)
	}
	var body bytes.Buffer
	if err := logdb.WriteRecords(peer, &body); err != nil {
		t.Fatal(err)
	}
	// Walk the length prefixes to the middle of the seventh frame.
	off := 8
	for i := 0; i < 6; i++ {
		off += 4 + int(binary.LittleEndian.Uint32(body.Bytes()[off:]))
	}
	cut := off + 4 + int(binary.LittleEndian.Uint32(body.Bytes()[off:]))/2

	fleet := &frameSpy{Store: logdb.NewStore()}
	acc, dups, err := MergeStream(fleet, bytes.NewReader(body.Bytes()[:cut]))
	if !errors.Is(err, probe.ErrTruncated) {
		t.Fatalf("torn body: error %v, want ErrTruncated", err)
	}
	if acc != 6*perFrame || dups != 0 || fleet.Len() != 6*perFrame {
		t.Fatalf("torn body merged %d records (%d dups, store %d), want six frames' %d", acc, dups, fleet.Len(), 6*perFrame)
	}
	if want := []int{perFrame, perFrame, perFrame, perFrame, perFrame, perFrame}; !reflect.DeepEqual(fleet.calls, want) {
		t.Fatalf("store fed in calls of %v records, want one call per frame %v", fleet.calls, want)
	}

	acc, dups, err = MergeStream(fleet, bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if acc != peer.Len()-6*perFrame || dups != 6*perFrame || fleet.Len() != peer.Len() {
		t.Fatalf("full pull accepted %d and rejected %d (store %d), want %d and %d", acc, dups, fleet.Len(), peer.Len()-6*perFrame, 6*perFrame)
	}
}

func TestLedgerConservation(t *testing.T) {
	// A live collector that ingested 100, persisted 90, discarded 6,
	// still buffers 4, then lost a 30-record range to a rebalance.
	src := Ledger{Appended: 100, Persisted: 90, Discarded: 6, Buffered: 4}
	if !src.Balanced() {
		t.Fatalf("source ledger unbalanced before move: %s", src)
	}
	src = src.Retire(30)
	// The new owner accepted those 30 as replays on top of its own 50.
	dst := Ledger{Appended: 50, Persisted: 50, Replayed: 30}
	dst.Persisted += 30
	if !src.Balanced() || !dst.Balanced() {
		t.Fatalf("per-member ledgers unbalanced:\n src %s\n dst %s", src, dst)
	}
	tier := Sum(src, dst)
	if !tier.Balanced() {
		t.Fatalf("tier ledger unbalanced: %s", tier)
	}
	if tier.Replayed != tier.Retired {
		t.Fatalf("replayed %d != retired %d", tier.Replayed, tier.Retired)
	}
	// Double-counting a replay (receiver accepts a record the sender did
	// not retire) keeps each ledger locally balanced — it surfaces only
	// in the tier-wide cross-check sum(Replayed) == sum(Retired).
	bad := Sum(src, dst, Ledger{Replayed: 1, Persisted: 1})
	if bad.Replayed == bad.Retired {
		t.Fatal("double-counted replay went undetected by the replay/retire cross-check")
	}
}

// A no-owner drop is a ring bug, not a bucket: it must unbalance the
// ledger no matter what the other buckets say, survive Sum, and show up
// in the rendering — a misrouted record can never balance silently.
func TestLedgerNoOwnerNeverBalances(t *testing.T) {
	l := Ledger{Appended: 10, Persisted: 10}
	if !l.Balanced() {
		t.Fatalf("clean ledger unbalanced: %s", l)
	}
	l.NoOwner = 1
	if l.Balanced() {
		t.Fatalf("no-owner drop balanced silently: %s", l)
	}
	if s := l.String(); !strings.Contains(s, "no_owner=1") || !strings.Contains(s, "UNBALANCED") {
		t.Fatalf("no-owner drop not rendered: %s", s)
	}
	tier := Sum(Ledger{Appended: 5, Persisted: 5}, l)
	if tier.NoOwner != 1 || tier.Balanced() {
		t.Fatalf("no-owner drop lost in the tier sum: %s", tier)
	}
	var buf strings.Builder
	l.WriteMetrics(&buf)
	if !strings.Contains(buf.String(), "causeway_cluster_ledger_no_owner_total 1") ||
		!strings.Contains(buf.String(), "causeway_cluster_ledger_balanced 0") {
		t.Fatalf("no-owner exposition wrong:\n%s", buf.String())
	}
}

// arrivalSeqs reads the frame journal a node keeps beside the store in dir
// — every frame it acknowledged, written in the order the frames arrived —
// and returns each chain's event seqs in that order: the fixture for
// proving a mid-chain rebalance never reorders a chain's events on any
// single collector.
func arrivalSeqs(t *testing.T, dir string) map[uuid.UUID][]uint64 {
	t.Helper()
	jdir := filepath.Join(dir, "journal")
	names, err := journalFiles(jdir)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make(map[uuid.UUID][]uint64)
	for _, name := range names {
		f, err := os.Open(filepath.Join(jdir, name))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := probe.ReadStream(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if r.Kind == probe.KindEvent {
				seqs[r.Chain] = append(seqs[r.Chain], r.Seq)
			}
		}
	}
	return seqs
}

// sumShipperStats folds the monotonic counters of a member-stats map —
// the exact quantity applyRing folds into hist at a rebalance.
func sumShipperStats(members map[string]telemetry.ShipperStats) telemetry.ShipperStats {
	var out telemetry.ShipperStats
	for _, st := range members {
		out.Appended += st.Appended
		out.Dropped += st.Dropped
		out.Shipped += st.Shipped
		out.Batches += st.Batches
		out.Bytes += st.Bytes
		out.Connects += st.Connects
		out.Reconnects += st.Reconnects
	}
	return out
}

// TestRoutedShipperMidChainEpochSwap: a ring epoch arriving while
// chains are mid-flight. Two invariants: (1) the hist counters carried
// across the rebalance equal the pre-rebalance member stats exactly —
// nothing a detached shipper did is forgotten or invented; (2) no
// collector ever observes a chain's events out of order, whether the
// records rode the original shipper, were detached and re-routed, or
// arrived after the swap.
func TestRoutedShipperMidChainEpochSwap(t *testing.T) {
	// Disk nodes, for the frame journal each keeps beside its store.
	dirs := []string{t.TempDir(), t.TempDir()}
	var nodes []*Node
	var stores []*tracestore.Store
	for _, dir := range dirs {
		node, ts := openDiskNode(t, dir, streamrecon.Config{})
		defer ts.Close()
		defer node.Close()
		nodes, stores = append(nodes, node), append(stores, ts)
	}
	received := func() int {
		return int(nodes[0].srv.Stats().Records + nodes[1].srv.Stats().Records)
	}

	ring1, err := Assign(1, 64, Members(nodes[0].Addr(), nodes[1].Addr()))
	if err != nil {
		t.Fatal(err)
	}
	// ring2 flips every span: each chain's second half lands on the
	// other collector, so every chain crosses the epoch mid-flight.
	ring2 := telemetry.Ring{Epoch: 2, Slots: 64, Members: []telemetry.RingMember{
		{ID: ring1.Members[1].ID, Addr: ring1.Members[1].Addr, Start: 0, End: 32},
		{ID: ring1.Members[0].ID, Addr: ring1.Members[0].Addr, Start: 32, End: 64},
	}}
	if err := ring2.Validate(); err != nil {
		t.Fatal(err)
	}

	rs, err := NewRouted(RouterConfig{Ring: ring1, Shipper: routerTemplate("p1")})
	if err != nil {
		t.Fatal(err)
	}

	gen := &uuid.SequentialGenerator{Seed: 41}
	const chains, half, full = 16, 10, 20
	ids := make([]uuid.UUID, chains)
	ev := func(chain uuid.UUID, seq uint64) probe.Record {
		return probe.Record{
			Kind: probe.KindEvent, Process: "p1", ProcType: "x86",
			Chain: chain, Seq: seq, Event: ftl.StubStart,
			Op: probe.OpID{Interface: "I", Operation: "op"},
		}
	}
	for i := range ids {
		ids[i] = gen.NewUUID()
	}
	// First half of every chain under epoch 1, fully delivered so the
	// pre-rebalance member stats are a stable quantity to compare hist
	// against.
	for seq := uint64(1); seq <= half; seq++ {
		for _, c := range ids {
			rs.Append(ev(c, seq))
		}
	}
	waitFor(t, func() bool { return received() == chains*half }, "first-half delivery")
	waitFor(t, func() bool {
		buffered := 0
		for _, st := range rs.Stats().Members {
			buffered += st.Buffered
		}
		return buffered == 0
	}, "shipper buffers to quiesce")

	pre := rs.Stats()
	want := sumShipperStats(pre.Members)
	if pre.Detached != (telemetry.ShipperStats{}) {
		t.Fatalf("hist dirty before any rebalance: %+v", pre.Detached)
	}
	rs.UpdateRing(ring2)
	waitFor(t, func() bool { return rs.Stats().Rebalances == 1 }, "epoch swap applied")

	got := rs.Stats().Detached
	if got != want {
		t.Fatalf("hist after rebalance:\n got  %+v\n want %+v (pre-rebalance member stats)", got, want)
	}

	// Second half of every chain rides the flipped ring.
	for seq := uint64(half + 1); seq <= full; seq++ {
		for _, c := range ids {
			rs.Append(ev(c, seq))
		}
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}

	st := rs.Combined()
	if st.Appended != chains*full || st.Dropped != 0 {
		t.Fatalf("combined stats after swap: %+v, want %d appended, 0 dropped", st, chains*full)
	}
	if n := received(); n != chains*full {
		t.Fatalf("collectors received %d records, want %d", n, chains*full)
	}
	// Per-chain order per collector: every chain's events arrive in
	// strictly increasing seq on whichever collector received them, and
	// the two collectors partition each chain without overlap.
	arrived := []map[uuid.UUID][]uint64{arrivalSeqs(t, dirs[0]), arrivalSeqs(t, dirs[1])}
	for _, c := range ids {
		seen := make(map[uint64]int)
		for _, at := range arrived {
			seqs := at[c]
			for i := 1; i < len(seqs); i++ {
				if seqs[i] <= seqs[i-1] {
					t.Fatalf("chain %s reordered across the epoch swap: %v", c.Short(), seqs)
				}
			}
			for _, s := range seqs {
				seen[s]++
			}
		}
		if len(seen) != full {
			t.Fatalf("chain %s: %d distinct seqs survived, want %d", c.Short(), len(seen), full)
		}
		for s, n := range seen {
			if n != 1 {
				t.Fatalf("chain %s seq %d delivered %d times", c.Short(), s, n)
			}
		}
	}
	held := 0
	for i, n := range nodes {
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		held += stores[i].Len()
	}
	if held != chains*full {
		t.Fatalf("stores hold %d records after the drain, want %d", held, chains*full)
	}
}
