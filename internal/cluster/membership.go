package cluster

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"causeway/internal/telemetry"
	"causeway/internal/transport"
	"causeway/internal/uuid"
)

// Membership automates what PR 7 left to the operator: noticing a dead
// collector, bumping the ring epoch, moving the orphaned hash ranges,
// and proving the tier lost nothing. Every collector runs one — there
// is no separate coordinator, in keeping with the ring's
// configuration-is-the-coordinator design:
//
//   - Heartbeats. On a jittered tick each member probes every peer's
//     debug plane (/healthz). One miss marks the peer suspect;
//     SuspectAfter consecutive misses mark it dead. Recovery is the
//     same signal reversed: a probe answered by a dead peer makes it
//     healthy again.
//
//   - Proposal. When the healthy set differs from the current ring's
//     member set, the lowest-ID healthy member — a deterministic
//     choice every member computes identically — proposes epoch N+1
//     over the healthy set via Assign. Assign sorts members, so the
//     proposed ring is byte-identical no matter who proposes it; a
//     tied proposal race is therefore harmless.
//
//   - Distribution. The proposer installs the new ring locally, which
//     its telemetry server hands to every shipper through the existing
//     handshake/poll path; other members adopt it by observing a
//     higher epoch on a peer's /memberz. Shipping processes route by
//     it without operator action either way.
//
//   - Donation. On every transition a member replays the hash ranges
//     it owned under its settled base ring but no longer owns
//     (MovedFrom) out of its own segments to each range's new owner,
//     via cluster.Replay. The receiver deduplicates, the donor retires
//     exactly what was accepted, and sum(Replayed) == sum(Retired)
//     holds tier-wide. A member that is not in the new ring (it just
//     rejoined and still serves a stale view) keeps its segments and
//     its donation base: when a later epoch folds it back in, the base
//     comparison shows nothing moved, instead of churning its whole
//     store out and back.
//
//   - Settling. After donating, the proposer fetches every ring
//     member's conservation ledger from /ledgerz and declares the
//     epoch settled only when the tier sums balance and
//     sum(Replayed) == sum(Retired). Until then the epoch reports as
//     settling, and the check retries each tick.
//
// `causectl cluster rebalance` drives the same donation path manually
// through /rebalancez — to resume a donation that failed mid-way, or
// to force a member that left the ring to hand its segments forward.
type Membership struct {
	cfg MembershipConfig

	mu     sync.Mutex
	ring   telemetry.Ring // current ownership map, served to shippers
	base   telemetry.Ring // last ring our segments were settled under
	peers  map[string]*peerState
	closed bool

	epochBumps uint64
	heartbeats uint64
	missTotal  uint64
	settling   bool   // a transition's donation/settle is in flight
	settled    bool   // proposer's ledger assertion passed for ring.Epoch
	verdict    string // human verdict from the last settle attempt

	donMu    sync.Mutex // serializes donations (tick loop vs /rebalancez)
	retired  uint64     // records accepted by donation targets (guarded by mu)
	scanned  uint64
	rejected uint64

	stop chan struct{}
	done chan struct{}
}

// peerState is one configured member as seen from here.
type peerState struct {
	member   telemetry.RingMember
	debug    string
	misses   int       // consecutive failed probes
	since    time.Time // when the current state began
	lastSeen time.Time // last successful probe (zero: never)
}

// Member states, derived from consecutive probe misses.
const (
	StateHealthy = "healthy"
	StateSuspect = "suspect"
	StateDead    = "dead"
)

func (m *Membership) stateOf(p *peerState) string {
	switch {
	case p.misses == 0:
		return StateHealthy
	case p.misses < m.cfg.SuspectAfter:
		return StateSuspect
	default:
		return StateDead
	}
}

// MembershipConfig wires one collector's membership instance.
type MembershipConfig struct {
	// Self is this collector's member ID — its advertised telemetry
	// address, which must appear in Members.
	Self string
	// Members is the configured member universe (the shared -peers
	// list): ID and telemetry Addr per member. Membership never grows
	// beyond it; death and rejoin move members out of and back into
	// the ring, not the universe.
	Members []telemetry.RingMember
	// DebugAddrs maps member ID -> debug-plane address, where
	// heartbeats (/healthz) and views (/memberz, /ledgerz) are served.
	DebugAddrs map[string]string
	// Epoch seeds the initial ring (default 1). A higher epoch
	// observed on any peer supersedes it immediately.
	Epoch uint64
	// Slots is the ring's slot count (default DefaultSlots).
	Slots int
	// Interval is the heartbeat tick, jittered per tick (default 1s).
	Interval time.Duration
	// SuspectAfter is how many consecutive missed probes mark a member
	// dead (default 3). The first miss already marks it suspect.
	SuspectAfter int
	// Store holds this collector's records; donations replay moved
	// ranges out of it. Nil means nothing to donate.
	Store Store
	// OnRing fires on every ring transition — proposed or adopted —
	// with the new ring. collectd points its telemetry server here so
	// shippers learn the ring through the normal handshake path.
	OnRing func(telemetry.Ring)
	// OnEvent receives human-readable membership events (state
	// changes, proposals, donations, settle verdicts).
	OnEvent func(string)
	// Probe overrides the liveness check (default: GET /healthz on
	// the member's debug address, 2xx = alive).
	Probe func(debugAddr string) bool
	// FetchView overrides how a peer's current ring is read (default:
	// GET /memberz, decode, return its ring).
	FetchView func(debugAddr string) (telemetry.Ring, error)
	// Ledgers overrides how a member's conservation ledger is read for
	// the settle assertion (default: FetchLedger, GET /ledgerz).
	Ledgers func(debugAddr string) (Ledger, error)
	// Dial overrides the replay transport (tests).
	Dial func(addr string) (transport.Client, error)
	// Clock overrides time.Now (tests).
	Clock func() time.Time

	// evict, set by the node, sends the chains of a range the node's chain
	// table still holds to Store before the range is donated out of it.
	evict func(match func(uuid.UUID) bool) int
}

// NewMembership validates cfg, builds the initial ring over the full
// member universe, and starts the heartbeat loop.
func NewMembership(cfg MembershipConfig) (*Membership, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: membership needs Self")
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 1
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 3
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	// Each probe/fetch is bounded by one heartbeat interval, capped at 2s.
	client := &http.Client{Timeout: min(cfg.Interval, 2*time.Second)}
	if cfg.Probe == nil {
		cfg.Probe = func(debugAddr string) bool {
			resp, err := client.Get("http://" + debugAddr + "/healthz")
			if err != nil {
				return false
			}
			resp.Body.Close()
			return resp.StatusCode/100 == 2
		}
	}
	if cfg.FetchView == nil {
		cfg.FetchView = func(debugAddr string) (telemetry.Ring, error) {
			p, err := FetchMemberz(client, debugAddr)
			if err != nil {
				return telemetry.Ring{}, err
			}
			return p.Ring, nil
		}
	}
	if cfg.Ledgers == nil {
		cfg.Ledgers = func(debugAddr string) (Ledger, error) {
			return FetchLedger(client, debugAddr)
		}
	}
	ring, err := Assign(cfg.Epoch, cfg.Slots, cfg.Members)
	if err != nil {
		return nil, err
	}
	if _, ok := MemberByID(ring, cfg.Self); !ok {
		return nil, fmt.Errorf("cluster: membership Self %q not in Members", cfg.Self)
	}
	m := &Membership{
		cfg:   cfg,
		ring:  ring,
		base:  ring,
		peers: make(map[string]*peerState, len(ring.Members)),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	now := cfg.Clock()
	for _, mem := range ring.Members {
		m.peers[mem.ID] = &peerState{
			member: mem,
			debug:  cfg.DebugAddrs[mem.ID],
			since:  now,
		}
	}
	go m.loop()
	return m, nil
}

// Ring returns the current ownership map — the ring collectd's
// telemetry server serves to shippers.
func (m *Membership) Ring() telemetry.Ring {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ring
}

// Close stops the heartbeat loop.
func (m *Membership) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		<-m.done
		return
	}
	m.closed = true
	m.mu.Unlock()
	close(m.stop)
	<-m.done
}

func (m *Membership) event(format string, args ...any) {
	if m.cfg.OnEvent != nil {
		m.cfg.OnEvent(fmt.Sprintf(format, args...))
	}
}

// loop is the heartbeat tick: probe, adopt, propose, settle.
func (m *Membership) loop() {
	defer close(m.done)
	for {
		select {
		case <-m.stop:
			return
		case <-time.After(telemetry.Jitter(m.cfg.Interval)):
		}
		m.tick()
	}
}

// tick runs one membership round. Probes run concurrently so one dead
// peer's timeout never delays detection of another.
func (m *Membership) tick() {
	m.mu.Lock()
	type probeTarget struct {
		id    string
		debug string
	}
	targets := make([]probeTarget, 0, len(m.peers))
	for id, p := range m.peers {
		if id == m.cfg.Self {
			continue
		}
		targets = append(targets, probeTarget{id: id, debug: p.debug})
	}
	m.mu.Unlock()

	alive := make(map[string]bool, len(targets))
	var aliveMu sync.Mutex
	var wg sync.WaitGroup
	for _, t := range targets {
		wg.Add(1)
		go func(t probeTarget) {
			defer wg.Done()
			ok := m.cfg.Probe(t.debug)
			aliveMu.Lock()
			alive[t.id] = ok
			aliveMu.Unlock()
		}(t)
	}
	wg.Wait()

	now := m.cfg.Clock()
	m.mu.Lock()
	for id, ok := range alive {
		p := m.peers[id]
		if p == nil {
			continue
		}
		was := m.stateOf(p)
		m.heartbeats++
		if ok {
			p.misses = 0
			p.lastSeen = now
		} else {
			p.misses++
			m.missTotal++
		}
		if is := m.stateOf(p); is != was {
			p.since = now
			m.event(fmt.Sprintf("member %s: %s -> %s (%d consecutive miss(es))", id, was, is, p.misses))
		}
	}
	m.mu.Unlock()

	m.adopt(alive)
	m.propose()
	m.trySettle()
}

// adopt pulls alive peers' views and installs the highest ring epoch
// seen — how non-proposers (and rejoined members serving a stale boot
// ring) catch up with a proposal made elsewhere.
func (m *Membership) adopt(alive map[string]bool) {
	cur := m.Ring()
	var best telemetry.Ring
	for id, ok := range alive {
		if !ok {
			continue
		}
		m.mu.Lock()
		p := m.peers[id]
		var debug string
		if p != nil {
			debug = p.debug
		}
		m.mu.Unlock()
		if debug == "" {
			continue
		}
		view, err := m.cfg.FetchView(debug)
		if err != nil || view.Validate() != nil {
			continue
		}
		if view.Epoch > cur.Epoch && view.Epoch > best.Epoch {
			best = view
		}
	}
	if best.Epoch > cur.Epoch {
		m.transition(best, "adopted from peer")
	}
}

// propose computes the deterministic next ring when the healthy set
// and the current ring disagree, if — and only if — this member is the
// proposer (lowest healthy ID).
func (m *Membership) propose() {
	m.mu.Lock()
	healthy := make([]telemetry.RingMember, 0, len(m.peers))
	for _, p := range m.peers {
		if m.stateOf(p) != StateDead {
			healthy = append(healthy, p.member)
		}
	}
	cur := m.ring
	m.mu.Unlock()
	if len(healthy) == 0 {
		return
	}
	sort.Slice(healthy, func(i, j int) bool { return healthy[i].ID < healthy[j].ID })
	if healthy[0].ID != m.cfg.Self {
		return
	}
	ids := make([]string, len(healthy))
	for i, h := range healthy {
		ids[i] = h.ID
	}
	curIDs := make([]string, len(cur.Members))
	for i, c := range cur.Members {
		curIDs[i] = c.ID
	}
	sort.Strings(curIDs)
	if strings.Join(ids, ",") == strings.Join(curIDs, ",") {
		return
	}
	next, err := Assign(cur.Epoch+1, cur.Slots, healthy)
	if err != nil {
		m.event(fmt.Sprintf("proposal for epoch %d failed: %v", cur.Epoch+1, err))
		return
	}
	m.event(fmt.Sprintf("proposing epoch %d: ring %s", next.Epoch, next))
	m.transition(next, "proposed")
}

// transition installs a newer ring and runs the donation for it.
func (m *Membership) transition(next telemetry.Ring, how string) {
	m.mu.Lock()
	if m.closed || next.Epoch <= m.ring.Epoch {
		m.mu.Unlock()
		return
	}
	m.ring = next
	m.epochBumps++
	m.settling = true
	m.settled = false
	m.verdict = ""
	m.mu.Unlock()
	m.event(fmt.Sprintf("epoch %d %s: ring %s", next.Epoch, how, next))
	if m.cfg.OnRing != nil {
		m.cfg.OnRing(next)
	}
	m.donate(false)
}

// donate replays every hash range this member owned under its settled
// base ring but no longer owns, to the range's new owner. force makes
// a member that left the ring donate anyway (manual rebalance of a
// drained member); otherwise such a member keeps its segments and its
// base, so a later rejoin epoch moves nothing back and forth.
func (m *Membership) donate(force bool) DonationResult {
	m.donMu.Lock()
	defer m.donMu.Unlock()

	m.mu.Lock()
	base, cur, self := m.base, m.ring, m.cfg.Self
	m.mu.Unlock()
	res := DonationResult{Epoch: cur.Epoch}

	_, member := MemberByID(cur, self)
	if !member && !force {
		m.event(fmt.Sprintf("epoch %d: not a ring member; segments retained (causectl cluster rebalance can donate them)", cur.Epoch))
		m.donationDone(true)
		return res
	}
	if m.cfg.Store == nil {
		m.advanceBase(cur)
		m.donationDone(true)
		return res
	}
	for _, target := range cur.Members {
		if target.ID == self {
			continue
		}
		pred := MovedFrom(base, cur, self, target.ID)
		if m.cfg.evict != nil {
			m.cfg.evict(pred)
		}
		r, err := Replay(ReplayConfig{
			Source:  m.cfg.Store,
			Range:   pred,
			Target:  target.Addr,
			Process: self + "/donor",
			Dial:    m.cfg.Dial,
		})
		d := Donation{Target: target.ID, Scanned: r.Scanned, Accepted: r.Accepted, Rejected: r.Rejected}
		if err != nil {
			d.Err = err.Error()
		}
		res.Donations = append(res.Donations, d)
		res.Retired += r.Accepted
		m.mu.Lock()
		m.retired += r.Accepted
		m.scanned += r.Scanned
		m.rejected += r.Rejected
		m.mu.Unlock()
		if r.Scanned > 0 || err != nil {
			m.event(fmt.Sprintf("epoch %d: donated range -> %s: scanned=%d accepted=%d rejected=%d%s",
				cur.Epoch, target.ID, r.Scanned, r.Accepted, r.Rejected, errSuffix(err)))
		}
		if err != nil {
			res.Err = err.Error()
		}
	}
	if res.Err == "" {
		m.advanceBase(cur)
	}
	m.donationDone(res.Err == "")
	if res.Err != "" {
		m.mu.Lock()
		m.verdict = "donation incomplete: " + res.Err
		m.mu.Unlock()
	}
	return res
}

func errSuffix(err error) string {
	if err == nil {
		return ""
	}
	return " error=" + err.Error()
}

// advanceBase marks cur as the ring this member's segments are settled
// under. A forced donation by a non-member advances the base too: its
// ranges are handed off, so a later rejoin genuinely starts empty.
func (m *Membership) advanceBase(cur telemetry.Ring) {
	m.mu.Lock()
	m.base = cur
	m.mu.Unlock()
}

// donationDone ends the settling phase for members that have nothing
// further to prove: the proposer keeps settling until its tier ledger
// assertion passes (trySettle); everyone else is done when their own
// donation completed cleanly.
func (m *Membership) donationDone(ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ok && m.proposerLocked() != m.cfg.Self {
		m.settling = false
	}
}

// proposerID is the lowest non-dead member ID — every member's
// deterministic answer to "who asserts the tier ledger".
func (m *Membership) proposerID() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.proposerLocked()
}

func (m *Membership) proposerLocked() string {
	best := ""
	for id, p := range m.peers {
		if m.stateOf(p) == StateDead {
			continue
		}
		if best == "" || id < best {
			best = id
		}
	}
	return best
}

// trySettle runs the proposer's settle assertion: sum every current
// ring member's conservation ledger and declare the epoch settled only
// when the tier balances and sum(Replayed) == sum(Retired). Reruns
// every tick until it passes, so donations still in flight elsewhere
// just delay settling instead of failing it.
func (m *Membership) trySettle() {
	m.mu.Lock()
	if !m.settling || m.settled {
		m.mu.Unlock()
		return
	}
	cur := m.ring
	proposer := m.proposerLocked()
	debugs := make(map[string]string, len(cur.Members))
	for _, mem := range cur.Members {
		if p := m.peers[mem.ID]; p != nil {
			debugs[mem.ID] = p.debug
		}
	}
	m.mu.Unlock()
	if proposer != m.cfg.Self {
		return
	}

	var ledgers []Ledger
	for id, debug := range debugs {
		led, err := m.cfg.Ledgers(debug)
		if err != nil {
			m.setVerdict(false, fmt.Sprintf("epoch %d settling: ledger of %s unreachable: %v", cur.Epoch, id, err))
			return
		}
		ledgers = append(ledgers, led)
	}
	tier := Sum(ledgers...)
	if tier.Replayed != tier.Retired {
		m.setVerdict(false, fmt.Sprintf("epoch %d settling: replayed=%d != retired=%d (donation in flight?)", cur.Epoch, tier.Replayed, tier.Retired))
		return
	}
	if !tier.Balanced() {
		m.setVerdict(false, fmt.Sprintf("epoch %d settling: tier ledger UNBALANCED: %s", cur.Epoch, tier))
		return
	}
	m.setVerdict(true, fmt.Sprintf("epoch %d settled: %s, sum(Replayed)==sum(Retired)==%d", cur.Epoch, tier, tier.Retired))
}

func (m *Membership) setVerdict(settled bool, verdict string) {
	m.mu.Lock()
	changed := m.verdict != verdict || m.settled != settled
	m.settled = settled
	if settled {
		m.settling = false
	}
	m.verdict = verdict
	m.mu.Unlock()
	if changed {
		m.event(verdict)
	}
}

// Rebalance manually triggers (or resumes) the donation for the
// current ring and re-runs the settle assertion — the handler behind
// `causectl cluster rebalance`. Donations are idempotent: re-donating
// an already-moved range scans it again and the receiver rejects every
// record as a duplicate, retiring nothing twice.
func (m *Membership) Rebalance() DonationResult {
	m.mu.Lock()
	m.settling = true
	m.settled = false
	m.mu.Unlock()
	res := m.donate(true)
	m.trySettle()
	m.mu.Lock()
	res.Verdict = m.verdict
	res.Settled = m.settled
	m.mu.Unlock()
	return res
}

// Donation accounts one moved range.
type Donation struct {
	Target   string `json:"target"`
	Scanned  uint64 `json:"scanned"`
	Accepted uint64 `json:"accepted"`
	Rejected uint64 `json:"rejected"`
	Err      string `json:"err,omitempty"`
}

// DonationResult accounts one donation pass (one transition, or one
// manual rebalance).
type DonationResult struct {
	Epoch     uint64     `json:"epoch"`
	Donations []Donation `json:"donations"`
	Retired   uint64     `json:"retired"`
	Err       string     `json:"err,omitempty"`
	Verdict   string     `json:"verdict,omitempty"`
	Settled   bool       `json:"settled"`
}

// MemberHealth is one member's heartbeat view in Status / /memberz.
type MemberHealth struct {
	ID       string `json:"id"`
	Debug    string `json:"debug,omitempty"`
	State    string `json:"state"`
	Misses   int    `json:"misses,omitempty"`
	StateFor string `json:"state_for,omitempty"` // how long in this state (suspect timer)
	LastSeen string `json:"last_seen,omitempty"`
	InRing   bool   `json:"in_ring"`
}

// MembershipStatus is the full membership view, served on /memberz.
type MembershipStatus struct {
	Self     string         `json:"self"`
	Proposer string         `json:"proposer"`
	Epoch    uint64         `json:"epoch"`
	Settling bool           `json:"settling"`
	Settled  bool           `json:"settled"`
	Verdict  string         `json:"verdict,omitempty"`
	Retired  uint64         `json:"retired"`
	Ring     telemetry.Ring `json:"ring"`
	Members  []MemberHealth `json:"members"`
}

// Status snapshots the membership state machine.
func (m *Membership) Status() MembershipStatus {
	now := m.cfg.Clock()
	m.mu.Lock()
	defer m.mu.Unlock()
	st := MembershipStatus{
		Self:     m.cfg.Self,
		Proposer: m.proposerLocked(),
		Epoch:    m.ring.Epoch,
		Settling: m.settling,
		Settled:  m.settled,
		Verdict:  m.verdict,
		Retired:  m.retired,
		Ring:     m.ring,
	}
	ids := make([]string, 0, len(m.peers))
	for id := range m.peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		p := m.peers[id]
		h := MemberHealth{
			ID:     id,
			Debug:  p.debug,
			State:  m.stateOf(p),
			Misses: p.misses,
		}
		if id == m.cfg.Self {
			h.State = StateHealthy
			h.Misses = 0
		}
		if h.State != StateHealthy {
			h.StateFor = now.Sub(p.since).Round(time.Millisecond).String()
		}
		if !p.lastSeen.IsZero() {
			h.LastSeen = now.Sub(p.lastSeen).Round(time.Millisecond).String() + " ago"
		}
		if _, ok := MemberByID(m.ring, id); ok {
			h.InRing = true
		}
		st.Members = append(st.Members, h)
	}
	return st
}

// WriteMetrics renders membership counters in exposition format —
// including causeway_cluster_retired_total, the donor-side half of the
// tier conservation cross-check.
func (m *Membership) WriteMetrics(w io.Writer) {
	st := m.Status()
	m.mu.Lock()
	bumps, beats, misses := m.epochBumps, m.heartbeats, m.missTotal
	retired, scanned, rejected := m.retired, m.scanned, m.rejected
	m.mu.Unlock()
	healthy, suspect, dead := 0, 0, 0
	for _, h := range st.Members {
		switch h.State {
		case StateHealthy:
			healthy++
		case StateSuspect:
			suspect++
		default:
			dead++
		}
	}
	fmt.Fprintf(w, "causeway_membership_epoch %d\n", st.Epoch)
	fmt.Fprintf(w, "causeway_membership_epoch_bumps_total %d\n", bumps)
	fmt.Fprintf(w, "causeway_membership_members_healthy %d\n", healthy)
	fmt.Fprintf(w, "causeway_membership_members_suspect %d\n", suspect)
	fmt.Fprintf(w, "causeway_membership_members_dead %d\n", dead)
	fmt.Fprintf(w, "causeway_membership_heartbeats_total %d\n", beats)
	fmt.Fprintf(w, "causeway_membership_misses_total %d\n", misses)
	fmt.Fprintf(w, "causeway_membership_settling %d\n", b2i(st.Settling))
	fmt.Fprintf(w, "causeway_membership_settled %d\n", b2i(st.Settled))
	fmt.Fprintf(w, "causeway_cluster_retired_total %d\n", retired)
	fmt.Fprintf(w, "causeway_cluster_donation_scanned_total %d\n", scanned)
	fmt.Fprintf(w, "causeway_cluster_donation_rejected_total %d\n", rejected)
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}
