// Equivalence test for automated cluster membership: a collector killed
// mid-run must be noticed by its peers' heartbeats, evicted by a
// deterministic proposal, and folded back in on rejoin with its moved
// ranges donated — all without operator action — and the fleet DSCG must
// still match the single-collector baseline byte for byte, with the tier
// ledger settling at sum(Replayed) == sum(Retired). This is the
// automated twin of TestClusterKillRejoinReplaySeeds, which drives the
// same transitions by hand.
package causeway_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"causeway/internal/analysis"
	"causeway/internal/cluster"
	"causeway/internal/debugserver"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/telemetry"
	"causeway/internal/tracestore"
)

func TestMembershipAutomatedKillRejoinSeeds(t *testing.T) {
	records := ppsRecords(t)
	baseline := logdb.NewStore()
	baseline.Insert(records...)
	want := characterize(t, analysis.ReconstructParallel(baseline, 4))

	for _, seed := range []int64{1, 1234, 987654321} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			recs := make([]probe.Record, len(records))
			copy(recs, records)
			rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
			victim := rng.Intn(3)
			cut1 := 1 + rng.Intn(len(recs)/2)
			cut2 := cut1 + 1 + rng.Intn(len(recs)-cut1-1)

			// One survivor keeps its records in memory: automated donation
			// must move a logdb-backed collector's ranges like any other's.
			memory := (victim + 1) % 3
			dirs := make([]string, 3)
			disks := make([]*tracestore.Store, 3)
			stores := make([]cluster.Store, 3)
			nodes := make([]*cluster.Node, 3)
			dbgs := make([]*debugserver.Server, 3)
			addrs := make([]string, 3)
			debugAddrs := make([]string, 3)

			openIngest := func(i int, addr string) {
				t.Helper()
				if i == memory {
					stores[i] = logdb.NewStore()
				} else {
					ts, err := tracestore.Open(dirs[i], tracestore.Options{Shards: 4})
					if err != nil {
						t.Fatal(err)
					}
					disks[i], stores[i] = ts, ts
				}
				nodes[i] = startNode(t, addr, stores[i])
			}
			// The debug plane carries the node's own handlers; /memberz and
			// /rebalancez answer 503 until the node's membership starts,
			// which must wait until every plane is listening (they probe
			// each other).
			openDebug := func(i int, addr string) {
				t.Helper()
				if addr == "" {
					addr = "127.0.0.1:0"
				}
				cfg := debugserver.Config{
					Addr:     addr,
					Process:  fmt.Sprintf("collector-%d", i),
					ProcType: "collector",
					Aspects:  "collection",
					Extra:    nodes[i].Handlers(),
				}
				// Rebinding the victim's old address can race the kernel
				// releasing it.
				clusterWaitFor(t, func() bool {
					dbg, err := debugserver.Start(cfg)
					if err != nil {
						return false
					}
					dbgs[i] = dbg
					return true
				}, "binding debug address "+addr)
			}

			base := t.TempDir()
			for i := range dirs {
				dirs[i] = filepath.Join(base, fmt.Sprintf("col%d", i))
				openIngest(i, "")
				addrs[i] = nodes[i].Addr()
			}
			for i := range dirs {
				openDebug(i, "")
				debugAddrs[i] = dbgs[i].Addr()
			}
			defer func() {
				for i := range nodes {
					nodes[i].Close()
					dbgs[i].Close()
					if disks[i] != nil {
						disks[i].Close()
					}
				}
			}()
			debugMap := make(map[string]string, 3)
			for i, a := range addrs {
				debugMap[a] = debugAddrs[i]
			}

			startMembership := func(i int) {
				t.Helper()
				if err := nodes[i].StartMembership(cluster.MembershipConfig{
					Members:      cluster.Members(addrs...),
					DebugAddrs:   debugMap,
					Epoch:        1,
					Interval:     20 * time.Millisecond,
					SuspectAfter: 3,
					OnEvent:      func(ev string) { t.Logf("membership[%d]: %s", i, ev) },
				}); err != nil {
					t.Fatal(err)
				}
			}
			for i := range dirs {
				startMembership(i)
			}
			// mems lists the nodes' memberships, the victim's on request:
			// while it is dead, its node holds a stopped one frozen at
			// epoch 1.
			mems := func(withVictim bool) []*cluster.Membership {
				var out []*cluster.Membership
				for i, n := range nodes {
					if withVictim || i != victim {
						out = append(out, n.Membership())
					}
				}
				return out
			}

			ring1, err := cluster.Assign(1, cluster.DefaultSlots, cluster.Members(addrs...))
			if err != nil {
				t.Fatal(err)
			}
			rs, err := cluster.NewRouted(cluster.RouterConfig{Ring: ring1, Shipper: fanoutTemplate("auto-kill")})
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()

			survivorLen := func() int {
				n := 0
				for i := range stores {
					if i != victim {
						n += heldBy(nodes[i], stores[i])
					}
				}
				return n
			}
			// settledProposer reports whether some running membership has
			// settled the given epoch as its proposer.
			settledProposer := func(epoch uint64) bool {
				for _, m := range mems(true) {
					st := m.Status()
					if st.Epoch == epoch && st.Settled && st.Proposer == st.Self {
						return true
					}
				}
				return false
			}

			// Phase 1: all three collectors up. Shipment is acknowledged,
			// so once every append is shipped the stores are exact.
			for _, r := range recs[:cut1] {
				rs.Append(r)
			}
			clusterWaitFor(t, func() bool {
				return survivorLen()+heldBy(nodes[victim], stores[victim]) == cut1
			}, "phase-1 ingest")

			// Kill the victim: membership, debug plane, server, store.
			// Heartbeats must notice, the lowest surviving ID must propose
			// epoch 2 without it, and the proposer must settle the new
			// epoch's ledger — all with no operator action.
			if err := nodes[victim].Close(); err != nil {
				t.Fatal(err)
			}
			dbgs[victim].Close()
			victimLen := stores[victim].Len()
			if err := disks[victim].Close(); err != nil {
				t.Fatal(err)
			}
			clusterWaitFor(t, func() bool {
				for _, m := range mems(false) {
					r := m.Ring()
					if _, still := cluster.MemberByID(r, addrs[victim]); r.Epoch < 2 || still {
						return false
					}
				}
				return true
			}, "survivors to evict the dead collector")
			clusterWaitFor(t, func() bool { return rs.Ring().Epoch >= 2 }, "router to adopt the survivor ring")
			clusterWaitFor(t, func() bool { return settledProposer(2) }, "the proposer to settle epoch 2")

			// sumRetired is the survivors' cumulative donation counter —
			// every record a donation replayed out and its target accepted.
			sumRetired := func() uint64 {
				n := uint64(0)
				for _, m := range mems(false) {
					n += m.Status().Retired
				}
				return n
			}

			// Shrinking three spans to two reshapes the survivors' own
			// ranges, so even the kill transition can donate phase-1
			// records between survivors: everything a survivor held whose
			// two-member owner is the other survivor.
			var survivors []string
			for i, a := range addrs {
				if i != victim {
					survivors = append(survivors, a)
				}
			}
			ring2, err := cluster.Assign(2, cluster.DefaultSlots, cluster.Members(survivors...))
			if err != nil {
				t.Fatal(err)
			}
			expectMoved2 := 0
			for i := range recs[:cut1] {
				r := recs[i]
				u := telemetry.RouteUUID(&r)
				m1, ok1 := ring1.OwnerOf(u)
				m2, ok2 := ring2.OwnerOf(u)
				if !ok1 || !ok2 {
					t.Fatalf("record %d has no ring owner", i)
				}
				if m1.ID != addrs[victim] && m1.ID != m2.ID {
					expectMoved2++
				}
			}
			clusterWaitFor(t, func() bool {
				return sumRetired() == uint64(expectMoved2)
			}, "the kill-epoch donation between survivors to complete")

			// Phase 2: the victim's ranges land on the survivors. The
			// epoch-2 donation left one extra copy per moved record —
			// donation sources keep their segments.
			for _, r := range recs[cut1:cut2] {
				rs.Append(r)
			}
			clusterWaitFor(t, func() bool {
				return survivorLen() == cut2-victimLen+expectMoved2
			}, "phase-2 ingest on the survivors")

			// What must move on rejoin: every phase-2 record whose owner
			// under the three-member ring differs from its owner under the
			// survivor ring. Most return to the victim, but ranges that
			// transited through epoch 2 also move between survivors. The
			// epoch-2 copies travel back too, but their originals are still
			// on the target, so dedup rejects them — they never count.
			ring3, err := cluster.Assign(3, cluster.DefaultSlots, cluster.Members(addrs...))
			if err != nil {
				t.Fatal(err)
			}
			expectMoved, expectToVictim := 0, 0
			for i := range recs[cut1:cut2] {
				r := recs[cut1+i]
				u := telemetry.RouteUUID(&r)
				m2, ok2 := ring2.OwnerOf(u)
				m3, ok3 := ring3.OwnerOf(u)
				if !ok2 || !ok3 {
					t.Fatalf("record %d has no ring owner", cut1+i)
				}
				if m2.ID != m3.ID {
					expectMoved++
				}
				if m3.ID == addrs[victim] {
					expectToVictim++
				}
			}

			// Rejoin: the victim comes back on its old addresses with its
			// old segments. The proposer folds it into epoch 3, and the
			// survivors donate the ranges they covered during the outage.
			openIngest(victim, addrs[victim])
			openDebug(victim, debugAddrs[victim])
			startMembership(victim)
			clusterWaitFor(t, func() bool {
				for _, m := range mems(true) {
					r := m.Ring()
					if _, in := cluster.MemberByID(r, addrs[victim]); r.Epoch < 3 || !in {
						return false
					}
				}
				return true
			}, "the tier to fold the reborn collector back in")
			clusterWaitFor(t, func() bool { return rs.Ring().Epoch >= 3 }, "router to adopt the rejoin ring")
			clusterWaitFor(t, func() bool { return settledProposer(3) }, "the proposer to settle epoch 3")
			// The proposer settles as soon as the ledger balances, which
			// can precede a slower survivor's donation — wait for all of
			// them, not just the settle.
			clusterWaitFor(t, func() bool {
				return sumRetired() == uint64(expectMoved2+expectMoved)
			}, "every survivor's rejoin donation to complete")

			donated := sumRetired()
			if got := stores[victim].Len(); got != victimLen+expectToVictim {
				t.Fatalf("reborn victim store holds %d records, want %d pre-kill + %d donated", got, victimLen, expectToVictim)
			}
			if got := nodes[victim].Server().Stats().Replayed; got != uint64(expectToVictim) {
				t.Fatalf("reborn victim accepted %d replayed records, want %d", got, expectToVictim)
			}

			// Phase 3: full tier again.
			for _, r := range recs[cut2:] {
				rs.Append(r)
			}
			if err := rs.Close(); err != nil {
				t.Fatal(err)
			}
			combined := rs.Combined()
			if combined.Dropped != 0 || combined.Appended != uint64(len(recs)) {
				t.Fatalf("router lost records across the outage: %+v over %d", combined, len(recs))
			}
			if stats := rs.Stats(); stats.NoOwner != 0 || stats.Rebalances < 2 {
				t.Fatalf("router stats implausible: %+v", stats)
			}

			// Conservation, from the live counters this time: the replay
			// the reborn victim accepted is exactly what the survivors
			// retired, and the proposer's settle verdict recorded it.
			var replayed uint64
			for i := range nodes {
				replayed += nodes[i].Server().Stats().Replayed
			}
			if replayed != donated {
				t.Fatalf("tier replay accounting off: replayed %d, retired %d", replayed, donated)
			}
			verdict := ""
			for _, m := range mems(true) {
				st := m.Status()
				if st.Proposer == st.Self {
					verdict = st.Verdict
				}
			}
			if !strings.Contains(verdict, "settled") {
				t.Fatalf("proposer verdict %q does not record a settled epoch", verdict)
			}

			// The fleet view: dedup absorbs exactly the donated copies and
			// the DSCG matches the single-collector baseline.
			drain(nodes)
			fleet, dups := mergeFleet(t, stores)
			if fleet.Len() != len(recs) {
				t.Fatalf("fleet holds %d of %d records after the automated kill/rejoin", fleet.Len(), len(recs))
			}
			if dups != expectMoved2+expectMoved {
				t.Fatalf("merge rejected %d duplicates, want the %d donated copies", dups, expectMoved2+expectMoved)
			}
			if got := characterize(t, analysis.ReconstructParallel(fleet, 4)); got != want {
				t.Fatal("fleet characterization after automated kill/rejoin diverges from the single-collector baseline")
			}
			t.Logf("seed %d: victim=%d cuts=(%d,%d) donated=%d verdict=%q",
				seed, victim, cut1, cut2, donated, verdict)
		})
	}
}
