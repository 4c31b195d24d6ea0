package telemetry

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"causeway/internal/probe"
	"causeway/internal/topology"
	"causeway/internal/transport"
)

// ShipperConfig assembles one process's record shipper.
type ShipperConfig struct {
	// Addr is the collection daemon's TCP address: the one member of the
	// ring a shipper without a Ring starts from.
	Addr string
	// Ring is the ownership map the shipper starts routing by: each record
	// goes to the member owning its chain (RouteUUID). Usually Assign over
	// the same -peers list every collector was started with, at epoch 0, so
	// the ring any collector serves (epoch >= 1) supersedes it at first
	// contact. When zero, Addr is the ring's only member.
	Ring Ring
	// Process identifies the shipping process in the handshake.
	Process topology.Process
	// DebugAddr, when set, is the process's debug/introspection HTTP
	// address, advertised in the handshake so the collection daemon can
	// scrape the peer's /metrics into a fleet view.
	DebugAddr string
	// BufferSize bounds the ring's span cells, not its records: a cell
	// holds one span of up to 4 records (one for a plain Append), so the
	// ring buffers up to 4x BufferSize records before it drops the
	// oldest. Rounded up to a power of two; default 8192.
	BufferSize int
	// BatchSize caps records per take from the ring, and so per ship
	// frame; default 256.
	BatchSize int
	// FlushInterval is the least time between two takes; default 1ms. A
	// full batch ships at once, and so does a record that finds the
	// shipper idle for a FlushInterval; a partial batch otherwise waits
	// until FlushInterval has passed since the previous take, so records
	// arriving faster than the collector's round trip share frames.
	FlushInterval time.Duration
	// BackoffMin/BackoffMax bound each member's reconnect backoff
	// (exponential with jitter); defaults 50ms and 5s.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// DrainTimeout bounds how long Close waits to deliver the remaining
	// buffer, a ship call the collector has not answered yet included;
	// default 2s. The default Dial's connect is bounded by it too. A
	// running ship call is not: it holds up only its own member.
	DrainTimeout time.Duration
	// Dial overrides the transport dialer (tests); default
	// transport.DialTCPTimeout within DrainTimeout.
	Dial func(addr string) (transport.Client, error)
	// RateTarget, when set, receives the collector-steered head-sampling
	// rate: from the handshake reply and then from every poll, whenever
	// the collector steers one. *sampling.Controlled satisfies it; wire
	// the same instance into probe.Config.Sampler and the process sheds
	// chains at whatever rate the collector asks for.
	RateTarget interface{ SetRate(float64) }
	// PollInterval is how often the shipper asks each connected member for
	// the ring and the rate again; default 1s.
	PollInterval time.Duration
}

func (c *ShipperConfig) applyDefaults() error {
	if c.Ring.IsZero() {
		if c.Addr == "" {
			return errors.New("telemetry: shipper needs an Addr or a Ring")
		}
		c.Ring = Ring{Slots: 1, Members: []RingMember{{ID: c.Addr, Addr: c.Addr, Start: 0, End: 1}}}
	}
	if err := c.Ring.Validate(); err != nil {
		return err
	}
	if c.BufferSize <= 0 {
		c.BufferSize = 8192
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.BatchSize > c.BufferSize {
		c.BatchSize = c.BufferSize
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = time.Millisecond
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.BackoffMax < c.BackoffMin {
		c.BackoffMax = c.BackoffMin
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 2 * time.Second
	}
	if c.Dial == nil {
		timeout := c.DrainTimeout
		c.Dial = func(addr string) (transport.Client, error) { return transport.DialTCPTimeout(addr, timeout) }
	}
	if c.PollInterval <= 0 {
		c.PollInterval = time.Second
	}
	return nil
}

// ShipperStats is a point-in-time snapshot of a shipper's self-observed
// counters.
type ShipperStats struct {
	Appended   uint64 // records offered to Append
	Dropped    uint64 // records lost to the drop-oldest overflow policy (or appended after Close)
	Shipped    uint64 // records acknowledged onto the wire
	Batches    uint64 // ship frames sent
	Bytes      uint64 // payload bytes sent (ship frames)
	Connects   uint64 // successful handshakes, including the first
	Reconnects uint64 // successful handshakes after a member's first
	Connected  bool   // a session with some member is currently established
	Buffered   int    // records waiting in the ring or in a member's unacknowledged part
	// LastError is the most recent handshake or protocol failure, empty
	// when the last attempt succeeded. A protocol-version mismatch
	// surfaces here verbatim so a mixed-version deployment is
	// diagnosable from the shipping side.
	LastError string

	Rebalances uint64 // newer rings applied
	Rerouted   uint64 // records handed back through the split at a ring change
	NoOwner    uint64 // records the ring gave no member (a ring bug guard), counted dropped too
}

// callFloor is the least bound on a running hello or poll call, and how
// long a ring change waits for a ship call in flight before it closes that
// member's connection. A running ship call has no bound of its own: it
// holds up only its own member, so a slow collector is waited for.
const callFloor = 10 * time.Second

// ShipperSink is a probe.Sink that streams records to the members of a
// collector ring over TCP. The probe hot path (Append/AppendSpan) is
// lock-free: records land in one probe.SpanRing with one CAS and one cell
// copy, and never perform I/O, block on the sender, or contend on a mutex,
// however many collectors the ring has.
//
// One background loop does the rest, and never waits on the network
// itself: every dial, poll and ship call runs off the loop, at most one
// per member at a time, and reports back to it. While some connected
// member could ship, the loop takes a batch from the ring and splits it by
// owner under the current ring (Ring.OwnerOf(RouteUUID): a chain, and the
// links its parent recorded, ride one member) into each member's part;
// every member that is free ships its part, at most BatchSize records a
// frame. A member that is down, backing off a refusal or waiting on a call
// holds its part while the others ship theirs; the part grows to no more
// than the ring's record capacity, past which its oldest records are
// dropped into that member's own account. Records wait in the ring only
// while no member is connected, and drop-oldest bounds them there.
//
// A newer ring from any member's handshake or poll reply is applied once
// no ship call is in flight: members it drops are disconnected at once, so
// a call they leave unanswered returns, and every part no member has
// acknowledged goes back through the split under it before the next take,
// so each collector still sees a chain's records in order.
//
// BufferSize bounds the ring's span cells; a cell holds one span (up to 4
// records when spans are batched, exactly 1 for plain Append), so single-
// record workloads see the historical record bound and span workloads may
// buffer up to 4x before the drop-oldest policy engages.
type ShipperSink struct {
	cfg ShipperConfig

	buf     *probe.SpanRing
	partCap int // records a member's part may hold: the ring's record capacity
	closed  atomic.Bool

	wake    chan struct{} // nudges the background loop; capacity 1
	stop    chan struct{}
	done    chan struct{}
	results chan callResult // calls report back to the loop here

	appended   atomic.Uint64
	dropped    atomic.Uint64
	inflight   atomic.Int64 // records taken from the ring, not yet acked/dropped
	shipped    atomic.Uint64
	batches    atomic.Uint64
	bytes      atomic.Uint64
	connects   atomic.Uint64
	reconnects atomic.Uint64
	connected  atomic.Int64 // members with an established session
	rebalances atomic.Uint64
	rerouted   atomic.Uint64
	noOwner    atomic.Uint64
	lastErr    atomic.Value // string: most recent handshake/protocol error

	// The loop's own: a newer valid ring a reply carried, applied once no
	// ship call is in flight; the calls in flight; whether Close began.
	next     *Ring
	calls    int
	draining bool

	// ring and members (parallel to ring.Members) are the loop's too; it
	// writes them under mu, which Ring and WriteMetrics read under.
	mu      sync.Mutex
	ring    Ring
	members []*member

	// live holds every open connection, under mu. drainBy is when Close's
	// budget ends, written before stop is closed. Once it has passed, cut
	// is set and every live connection closed, and so is every connection
	// made after: a call a collector never answers returns, and Close
	// with it.
	live    map[transport.Client]struct{}
	drainBy time.Time
	cut     bool
}

// member is one ring member's connection and account. Everything but
// shipped is the loop's own; while busy, sending and enc are the call's.
type member struct {
	id, addr  string
	client    transport.Client // nil until a handshake succeeds
	handshook bool             // a handshake has succeeded before
	busy      bool             // a dial, poll or ship call is in flight
	pollDue   bool             // a poll waits for the call in flight
	gone      bool             // a newer ring drops the member
	backoff   time.Duration
	dialAt    time.Time          // the next connect attempt, no sooner
	retryAt   time.Time          // a refused part goes again no sooner
	sentAt    time.Time          // when the member's previous frame went
	part      []probe.Record     // taken for the member, not yet sent; oldest first
	sending   []probe.Record     // the ship call in flight's records
	enc       probe.FrameEncoder // the member's encode buffer

	// The member's closing account: records the split gave it (less
	// what went back through the split), and what became of them.
	appended, dropped uint64
	shipped           atomic.Uint64
}

var (
	_ probe.Sink     = (*ShipperSink)(nil)
	_ probe.SpanSink = (*ShipperSink)(nil)
)

// NewShipper starts a shipper. It returns immediately even when no member
// is reachable: records buffer (and eventually rotate out, oldest first)
// until a connection is established.
func NewShipper(cfg ShipperConfig) (*ShipperSink, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	s := &ShipperSink{
		cfg:     cfg,
		buf:     probe.NewSpanRing(cfg.BufferSize),
		partCap: 4 * cfg.BufferSize,
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		results: make(chan callResult),
		ring:    cfg.Ring,
		live:    make(map[transport.Client]struct{}),
	}
	s.members = s.membersFor(cfg.Ring, nil)
	go s.loop()
	return s, nil
}

// Append implements probe.Sink. It is O(1), lock-free, and never blocks: a
// full buffer drops the oldest span to admit the new one.
func (s *ShipperSink) Append(r probe.Record) {
	var tmp [1]probe.Record
	tmp[0] = r
	s.AppendSpan(tmp[:])
}

// AppendSpan implements probe.SpanSink: the records of one invocation span
// enter the ring as a unit — one CAS, one cell copy — and ship together.
//
// It wakes the loop only when its push turned the ring non-empty (the loop
// may be waiting with nothing to send) or filled a batch (the loop may be
// spacing out a partial one). Both are read off the count the push itself
// left: the loop sleeps on the wake only after seeing the ring empty, and
// whichever later push takes the count above zero sees that it did, so no
// record is left waiting for a wake that never comes.
func (s *ShipperSink) AppendSpan(recs []probe.Record) {
	if len(recs) == 0 {
		return
	}
	s.appended.Add(uint64(len(recs)))
	if s.closed.Load() {
		s.dropped.Add(uint64(len(recs)))
		return
	}
	d, n := s.buf.Push(recs)
	if d > 0 {
		s.dropped.Add(uint64(d))
	}
	prev := n - (len(recs) - d)
	if (prev <= 0 && n > 0) || (prev < s.cfg.BatchSize && n >= s.cfg.BatchSize) {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// take moves up to max records (rounded up to whole spans) from the ring
// into dst's backing array (truncating dst first, growing only when a
// batch exceeds its capacity) and returns the result, so steady-state
// batching reuses one scratch slice instead of allocating per batch.
// Taken records are counted in-flight: they stay visible in Buffered until
// settled — acknowledged or dropped — so no record is ever invisible to
// the conservation ledger mid-shipment.
func (s *ShipperSink) take(dst []probe.Record, max int) []probe.Record {
	dst = s.buf.PopInto(dst[:0], max)
	s.inflight.Add(int64(len(dst)))
	return dst
}

// settle retires n in-flight records (shipped or dropped).
func (s *ShipperSink) settle(n int) {
	if n != 0 {
		s.inflight.Add(int64(-n))
	}
}

// Stats snapshots the counters.
func (s *ShipperSink) Stats() ShipperStats {
	st := ShipperStats{
		Appended:   s.appended.Load(),
		Dropped:    s.dropped.Load(),
		Shipped:    s.shipped.Load(),
		Batches:    s.batches.Load(),
		Bytes:      s.bytes.Load(),
		Connects:   s.connects.Load(),
		Reconnects: s.reconnects.Load(),
		Connected:  s.connected.Load() > 0,
		Buffered:   s.buf.Buffered() + int(s.inflight.Load()),
		Rebalances: s.rebalances.Load(),
		Rerouted:   s.rerouted.Load(),
		NoOwner:    s.noOwner.Load(),
	}
	if e, ok := s.lastErr.Load().(string); ok {
		st.LastError = e
	}
	return st
}

// Ring returns the ring the shipper currently routes by.
func (s *ShipperSink) Ring() Ring {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring
}

// WriteMetrics renders the shipper's counters in exposition format: the
// causeway_shipper_* series, then the ring's causeway_cluster_* ones. The
// drop counter is the monitoring plane's own loss accounting: records the
// ring rotated out under backpressure (or that Close could not deliver).
func (s *ShipperSink) WriteMetrics(w io.Writer) {
	st := s.Stats()
	fmt.Fprintf(w, "causeway_shipper_appended_total %d\n", st.Appended)
	fmt.Fprintf(w, "causeway_shipper_dropped_total %d\n", st.Dropped)
	fmt.Fprintf(w, "causeway_shipper_shipped_total %d\n", st.Shipped)
	fmt.Fprintf(w, "causeway_shipper_batches_total %d\n", st.Batches)
	fmt.Fprintf(w, "causeway_shipper_bytes_total %d\n", st.Bytes)
	fmt.Fprintf(w, "causeway_shipper_reconnects_total %d\n", st.Reconnects)
	connected := 0
	if st.Connected {
		connected = 1
	}
	fmt.Fprintf(w, "causeway_shipper_connected %d\n", connected)
	fmt.Fprintf(w, "causeway_shipper_buffered %d\n", st.Buffered)

	s.mu.Lock()
	epoch, n := s.ring.Epoch, len(s.ring.Members)
	members := append([]*member(nil), s.members...)
	s.mu.Unlock()
	fmt.Fprintf(w, "causeway_cluster_ring_epoch %d\n", epoch)
	fmt.Fprintf(w, "causeway_cluster_ring_members %d\n", n)
	fmt.Fprintf(w, "causeway_cluster_rebalances_total %d\n", st.Rebalances)
	fmt.Fprintf(w, "causeway_cluster_rerouted_records_total %d\n", st.Rerouted)
	fmt.Fprintf(w, "causeway_cluster_no_owner_total %d\n", st.NoOwner)
	sort.Slice(members, func(i, j int) bool { return members[i].id < members[j].id })
	for _, m := range members {
		fmt.Fprintf(w, "causeway_cluster_member_shipped_total{member=%q} %d\n", m.id, m.shipped.Load())
	}
}

// Close drains the buffer and sends each member its closing account, both
// bounded by DrainTimeout, and stops the background goroutine. Records
// that could not be delivered in time are counted as dropped. Close
// returns soon after DrainTimeout even when a collector leaves a ship call
// unanswered: the connections are closed under the call once the budget
// is spent. Append after Close drops.
func (s *ShipperSink) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		<-s.done
		return nil
	}
	s.drainBy = time.Now().Add(s.cfg.DrainTimeout)
	close(s.stop)
	cut := time.AfterFunc(s.cfg.DrainTimeout, s.cutLive)
	<-s.done
	cut.Stop()
	return nil
}

// track adds c to the connections the cut closes; false when the cut has
// happened already.
func (s *ShipperSink) track(c transport.Client) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cut {
		return false
	}
	s.live[c] = struct{}{}
	return true
}

// untrack closes c and forgets it.
func (s *ShipperSink) untrack(c transport.Client) {
	s.mu.Lock()
	delete(s.live, c)
	s.mu.Unlock()
	c.Close()
}

// cutLive closes every live connection and refuses every later one.
func (s *ShipperSink) cutLive() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cut = true
	for c := range s.live {
		c.Close()
	}
}

// membersFor lines up a member for each of r's, keeping those of old that
// r names at the same address — with their connections and accounts.
func (s *ShipperSink) membersFor(r Ring, old []*member) []*member {
	out := make([]*member, len(r.Members))
	for i, rm := range r.Members {
		for _, m := range old {
			if m.id == rm.ID && m.addr == rm.Addr {
				out[i], m.gone = m, false
			}
		}
		if out[i] == nil {
			out[i] = &member{id: rm.ID, addr: rm.Addr, backoff: s.cfg.BackoffMin}
		}
	}
	return out
}

// callKind is which call a member has in flight.
type callKind uint8

const (
	callDial callKind = iota
	callPoll
	callShip
)

// shipResult is how a part's ship call ended.
type shipResult uint8

const (
	acked    shipResult = iota // the collector ingested the records
	rejected                   // a protocol rejection: nothing a retry can fix, dropped
	refused                    // not kept: the part goes again after a backoff
	failed                     // the connection is dead
)

// callResult is what a call off the loop reports back to it.
type callResult struct {
	m      *member
	kind   callKind
	client transport.Client // callDial: the handshaken connection, nil on failure
	reply  *HelloReply      // callDial, callPoll: what the collector said, if it said anything
	dead   bool             // callPoll: the connection failed
	ship   shipResult       // callShip
	bytes  int              // callShip: the frame's payload bytes
}

// start runs a call for m off the loop, on m's connection c, bounded by
// timeout; m is busy until its result is back.
func (s *ShipperSink) start(m *member, kind callKind, c transport.Client, timeout time.Duration) {
	m.busy = true
	s.calls++
	go func() {
		var r callResult
		switch kind {
		case callDial:
			r = s.dial(m, timeout)
		case callPoll:
			r = s.poll(c, timeout)
		case callShip:
			r = s.send(m, c, timeout)
		}
		r.m, r.kind = m, kind
		s.results <- r
	}()
}

// timeout bounds a call of the given kind the loop starts: what is left of
// Close's budget once it has begun; before, callFloor for a dial or poll,
// and nothing for a ship call.
func (s *ShipperSink) timeout(kind callKind) time.Duration {
	switch {
	case s.draining:
		return max(time.Until(s.drainBy), time.Nanosecond)
	case kind == callShip:
		return 0
	}
	return max(s.cfg.DrainTimeout, callFloor)
}

// dial connects to m and handshakes once. Protocol-level rejections
// (version mismatch above all) are preserved in LastError so the endless
// reconnect loop stays diagnosable.
func (s *ShipperSink) dial(m *member, timeout time.Duration) callResult {
	client, err := s.cfg.Dial(m.addr)
	if err != nil {
		s.lastErr.Store(err.Error())
		return callResult{}
	}
	if !s.track(client) {
		client.Close()
		return callResult{}
	}
	hr, err := handshake(client, Hello{
		Version:   ProtocolVersion,
		Process:   s.cfg.Process.ID,
		ProcType:  s.cfg.Process.Processor.Type,
		DebugAddr: s.cfg.DebugAddr,
	}, timeout)
	if err != nil {
		s.lastErr.Store(err.Error())
		s.untrack(client)
		return callResult{}
	}
	s.lastErr.Store("")
	return callResult{client: client, reply: &hr}
}

// poll asks a member's collector for its reply again.
func (s *ShipperSink) poll(c transport.Client, timeout time.Duration) callResult {
	rep, err := c.Call(transport.Request{ObjectKey: ObjectKey, Operation: opPoll, Timeout: timeout})
	if err != nil {
		return callResult{dead: true}
	}
	if rep.Status == transport.StatusOK {
		if hr, err := decodeHelloReply(rep.Body); err == nil {
			return callResult{reply: &hr}
		}
	}
	return callResult{}
}

// send ships m's sending records on c. Acknowledged shipment: the records
// leave m only once the collector confirms ingestion. A frame written onto
// a socket whose far end just died would otherwise be counted shipped and
// silently lost — the kill-a-collector hole. Sending an
// ingested-but-unacknowledged part again is safe: the stores deduplicate
// by record identity.
func (s *ShipperSink) send(m *member, c transport.Client, timeout time.Duration) callResult {
	payload := m.enc.Encode(m.sending)
	rep, err := c.Call(transport.Request{ObjectKey: ObjectKey, Operation: opShip, Body: payload, Timeout: timeout})
	switch {
	case err != nil:
		return callResult{ship: failed}
	case rep.Status == transport.StatusUserException:
		// The collector could not keep the frame: the part is not
		// acknowledged and goes again after a backoff, not at the
		// producers' rate.
		s.lastErr.Store(fmt.Sprintf("telemetry: ship not kept: %s", rep.Body))
		return callResult{ship: refused}
	case rep.Status != transport.StatusOK:
		s.lastErr.Store(fmt.Sprintf("telemetry: ship rejected: %s", rep.Body))
		return callResult{ship: rejected}
	}
	return callResult{ship: acked, bytes: len(payload)}
}

// finish takes a call's result back onto the loop.
func (s *ShipperSink) finish(r callResult) {
	m := r.m
	m.busy = false
	s.calls--
	switch r.kind {
	case callDial:
		if r.client == nil {
			// Jittered exponential backoff, per member.
			m.dialAt = time.Now().Add(Jitter(m.backoff))
			m.backoff = min(2*m.backoff, s.cfg.BackoffMax)
			return
		}
		if m.gone {
			s.untrack(r.client)
			return
		}
		m.client, m.backoff = r.client, s.cfg.BackoffMin
		s.connects.Add(1)
		if m.handshook {
			s.reconnects.Add(1)
		}
		m.handshook = true
		s.connected.Add(1)
		s.learn(*r.reply)
	case callPoll:
		if r.dead {
			s.disconnect(m)
		} else if r.reply != nil {
			s.learn(*r.reply)
		}
	case callShip:
		switch r.ship {
		case acked:
			n := len(m.sending)
			s.shipped.Add(uint64(n))
			m.shipped.Add(uint64(n))
			s.batches.Add(1)
			s.bytes.Add(uint64(r.bytes))
			s.settle(n)
			m.sending = m.sending[:0]
		case rejected:
			s.dropped.Add(uint64(len(m.sending)))
			m.dropped += uint64(len(m.sending))
			s.settle(len(m.sending))
			m.sending = m.sending[:0]
		default:
			// Back at the head of the part, ahead of what was taken since.
			m.sending = append(m.sending, m.part...)
			m.part, m.sending = m.sending, m.part[:0]
			if r.ship == refused {
				m.retryAt = time.Now().Add(Jitter(s.cfg.BackoffMin))
			} else {
				s.disconnect(m)
			}
		}
	}
}

// disconnect closes m's connection; the loop dials it again at once.
func (s *ShipperSink) disconnect(m *member) {
	if m.client == nil {
		return
	}
	s.untrack(m.client)
	m.client = nil
	s.connected.Add(-1)
	m.dialAt = time.Now()
}

// learn takes what a hello or poll reply carries: a valid ring newer than
// any seen is kept for the loop to apply, a rate goes to RateTarget. Once
// Close has begun the ring stays as it is.
func (s *ShipperSink) learn(hr HelloReply) {
	newest := s.ring.Epoch
	if s.next != nil {
		newest = s.next.Epoch
	}
	if hr.HasRing && hr.Ring.Epoch > newest && hr.Ring.Validate() == nil && !s.draining {
		r := hr.Ring
		s.next = &r
	}
	if hr.HasRate && s.cfg.RateTarget != nil {
		s.cfg.RateTarget.SetRate(hr.Rate)
	}
}

// applyNext routes by the ring a reply carried once no ship call is in
// flight: members it drops are disconnected first, so a call they leave
// unanswered returns, and so is a kept member whose call has been out for
// callFloor; members it keeps keep their connections and accounts; and
// every part no member has acknowledged goes back through the split under
// it, ahead of anything taken later. held is scratch for the parts. While
// a ship call is still out it returns when to cut the oldest, and the zero
// time once the ring is applied.
func (s *ShipperSink) applyNext(held *[]probe.Record) time.Time {
	r := *s.next
	now := time.Now()
	var wait time.Time
	for _, m := range s.members {
		kept := slices.ContainsFunc(r.Members, func(rm RingMember) bool { return rm.ID == m.id && rm.Addr == m.addr })
		if !kept && !m.gone {
			m.gone = true
			s.disconnect(m)
		}
		if len(m.sending) > 0 {
			if at := m.sentAt.Add(callFloor); now.Before(at) {
				wait = earliest(wait, at)
			} else {
				s.disconnect(m)
				wait = now // the call is failing now
			}
		}
	}
	if !wait.IsZero() {
		return wait
	}
	s.next = nil
	*held = (*held)[:0]
	for _, m := range s.members {
		*held = append(*held, m.part...)
		m.appended -= uint64(len(m.part))
		m.part = m.part[:0]
	}
	members := s.membersFor(r, s.members)
	s.mu.Lock()
	s.ring, s.members = r, members
	s.mu.Unlock()
	s.rebalances.Add(1)
	s.rerouted.Add(uint64(len(*held)))
	s.split(held)
	return time.Time{}
}

// split hands each record of batch to its owner's part. A lone member
// whose part is empty takes the batch whole, trading slices with it. A
// part past partCap loses its oldest records, a quarter of the cap at a
// time, into its member's account.
func (s *ShipperSink) split(batch *[]probe.Record) {
	if len(s.members) == 1 && len(s.members[0].part) == 0 {
		m := s.members[0]
		m.appended += uint64(len(*batch))
		m.part, *batch = *batch, m.part
		return
	}
	for i := range *batch {
		rec := &(*batch)[i]
		o := s.ring.ownerIndex(RouteUUID(rec))
		if o < 0 {
			// Unreachable on a validated ring; counted, never silent.
			s.noOwner.Add(1)
			s.dropped.Add(1)
			s.settle(1)
			continue
		}
		m := s.members[o]
		m.part = append(m.part, *rec)
		m.appended++
	}
	for _, m := range s.members {
		if len(m.part) > s.partCap {
			n := len(m.part) - s.partCap + s.partCap/4
			s.dropN(m, n)
		}
	}
}

// dropN counts m's n oldest waiting records as dropped and removes them.
func (s *ShipperSink) dropN(m *member, n int) {
	s.dropped.Add(uint64(n))
	m.dropped += uint64(n)
	s.settle(n)
	m.part = m.part[:copy(m.part, m.part[n:])]
}

// ship starts m's next frame: the head of its part, at most BatchSize
// records.
func (s *ShipperSink) ship(m *member) {
	if n := len(m.part); n <= s.cfg.BatchSize {
		m.sending, m.part = m.part, m.sending[:0]
	} else {
		m.sending = append(m.sending[:0], m.part[:s.cfg.BatchSize]...)
		m.part = m.part[:copy(m.part, m.part[s.cfg.BatchSize:])]
	}
	s.start(m, callShip, m.client, s.timeout(callShip))
}

// pump starts every call that is due — a dial, a poll a member owes, a
// frame — and, while a member that could ship at once holds less than a
// batch, takes and splits the next batch first: a full one at once, a
// partial one once such a member may send a partial frame, and at most
// one a member before results are let in. A member sends a full batch at
// once and a partial one no sooner than FlushInterval after its previous
// frame, so records arriving faster than its round trip share frames.
// pump returns when a dial, a refused part or a partial frame is next
// due, or the zero time when nothing is.
func (s *ShipperSink) pump(batch *[]probe.Record) time.Time {
	now := time.Now()
	var due time.Time
	for _, m := range s.members {
		switch {
		case m.busy:
		case m.client == nil && s.draining:
			// Close's one dial has failed: the part cannot go.
			s.dropN(m, len(m.part))
		case m.gone:
		case m.client == nil && now.Before(m.dialAt):
			due = earliest(due, m.dialAt)
		case m.client == nil:
			s.start(m, callDial, nil, s.timeout(callDial))
		case m.pollDue:
			m.pollDue = false
			s.start(m, callPoll, m.client, s.timeout(callPoll))
		case now.Before(m.retryAt):
			due = earliest(due, m.retryAt)
		}
	}
	if s.next != nil {
		return due
	}
	for takes := 0; ; takes++ {
		hungry, at := s.hunger(now)
		n := s.buf.Buffered()
		if !hungry || n <= 0 {
			break
		}
		if n < s.cfg.BatchSize && !s.draining && now.Before(at) {
			due = earliest(due, at)
			break
		}
		if takes == len(s.members) {
			due = now
			break
		}
		if *batch = s.take(*batch, s.cfg.BatchSize); len(*batch) == 0 {
			// The oldest cell's producer is between claiming it and
			// filling it; it is about to finish.
			runtime.Gosched()
			continue
		}
		s.split(batch)
	}
	for _, m := range s.members {
		if len(m.part) == 0 || !m.free(now) {
			continue
		}
		if at := m.sentAt.Add(s.cfg.FlushInterval); len(m.part) < s.cfg.BatchSize && !s.draining && now.Before(at) {
			due = earliest(due, at)
			continue
		}
		m.sentAt = now
		s.ship(m)
	}
	return due
}

// hunger reports whether a member could ship now and holds less than a
// batch, and the earliest such a member may send a partial frame.
func (s *ShipperSink) hunger(now time.Time) (hungry bool, at time.Time) {
	for _, m := range s.members {
		if m.free(now) && len(m.part) < s.cfg.BatchSize {
			hungry, at = true, earliest(at, m.sentAt.Add(s.cfg.FlushInterval))
		}
	}
	return hungry, at
}

// free reports whether m could start a ship call now.
func (m *member) free(now time.Time) bool {
	return !m.busy && !m.gone && m.client != nil && !m.pollDue && !now.Before(m.retryAt)
}

// earliest is the earlier of two times, the zero time standing for none.
func earliest(a, b time.Time) time.Time {
	if a.IsZero() || (!b.IsZero() && b.Before(a)) {
		return b
	}
	return a
}

// loop is the background sender: apply a newer ring once it can, start the
// calls that are due, and wait for a record, a call's result, a deadline
// or the poll tick; on stop, drain.
func (s *ShipperSink) loop() {
	defer close(s.done)
	var batch []probe.Record // the take's scratch
	// One timer paces partial frames, refused parts, dials and
	// a ring change's wait; armed is when it fires, zero when it is not
	// armed. It is moved only to an earlier time: firing early costs one
	// more pass.
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var armed time.Time
	pt := time.NewTicker(s.cfg.PollInterval)
	defer pt.Stop()
	stop := s.stop
	for {
		var due time.Time
		if s.next != nil {
			due = s.applyNext(&batch)
		}
		due = earliest(due, s.pump(&batch))
		if s.draining {
			spent := !time.Now().Before(s.drainBy)
			if s.calls == 0 && (spent || s.connected.Load() == 0 || s.idle()) {
				break
			}
			if !spent {
				due = earliest(due, s.drainBy)
			}
		}
		if !due.IsZero() && (armed.IsZero() || due.Before(armed)) {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(time.Until(due))
			armed = due
		}
		var dueCh <-chan time.Time
		if !armed.IsZero() {
			dueCh = timer.C
		}
		select {
		case <-stop:
			// Close: every member not connected gets one dial now, and the
			// loop runs on without pacing or polls until the ring and the
			// parts are empty or the budget is spent.
			stop, s.draining, s.next = nil, true, nil
			for _, m := range s.members {
				m.pollDue = false
				if m.client == nil && !m.busy && !m.gone {
					s.start(m, callDial, nil, s.timeout(callDial))
				}
			}
		case r := <-s.results:
			s.finish(r)
		case <-s.wake:
		case <-dueCh:
			armed = time.Time{}
		case <-pt.C:
			for _, m := range s.members {
				m.pollDue = m.client != nil && !s.draining
			}
		}
	}
	s.close(&batch)
}

// idle reports whether the ring and every part are empty.
func (s *ShipperSink) idle() bool {
	return s.buf.Buffered() == 0 && !slices.ContainsFunc(s.members, func(m *member) bool { return len(m.part) > 0 })
}

// close ends the drain with no call in flight: whatever is still queued
// did not make it and goes to its owner's account, dropped; then each
// connected member gets its closing account — what the split gave it,
// shipped and dropped, as they will stand after Close returns — and is
// disconnected.
func (s *ShipperSink) close(batch *[]probe.Record) {
	if left := s.buf.Buffered(); left > 0 {
		*batch = s.take(*batch, left)
		s.split(batch)
	}
	for _, m := range s.members {
		s.dropN(m, len(m.part))
	}
	for _, m := range s.members {
		if m.client == nil {
			continue
		}
		// A sync call: the reply proves the server holds the account and
		// every frame before it. A wedged server must not hang Close, so
		// the wait is bounded by what remains of the budget, and the
		// account is written even when none remains. Its error changes
		// nothing: the connection closes next either way.
		final := ShipperFinal{Appended: m.appended, Dropped: m.dropped, Shipped: m.shipped.Load()}
		_, _ = m.client.Call(transport.Request{
			ObjectKey: ObjectKey, Operation: opStats, Body: encodeFinal(final), Timeout: s.timeout(callShip),
		})
		s.disconnect(m)
	}
}
