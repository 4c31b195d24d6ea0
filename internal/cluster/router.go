package cluster

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"causeway/internal/probe"
	"causeway/internal/telemetry"
)

// RouterConfig assembles a RoutedShipper.
type RouterConfig struct {
	// Ring is the initial ownership map — usually Assign over the same
	// -peers list every collector was started with, at epoch 0; the
	// authoritative ring arriving in each member's handshake or poll
	// reply supersedes it the moment any epoch advances.
	Ring telemetry.Ring
	// Shipper is the per-member shipper template: Addr and OnRing are
	// set per member, every other field (process identity, buffer
	// sizes, backoff, drain budget, rate target, poll interval) applies
	// to each member's shipper unchanged.
	Shipper telemetry.ShipperConfig
}

// RoutedShipper is a probe.Sink that fans one process's records across
// an ingest-collector cluster by chain hash: each record routes to the
// ring member owning its chain (links route by parent chain), so every
// chain lands whole on exactly one collector. Ring updates learned from
// any member re-route in-flight records: the affected members' shippers
// are detached — returning their undelivered records — and the records
// re-enter through the new ring, preserving per-chain order (a chain
// maps to one member per ring, so its records ride one shipper at a
// time).
type RoutedShipper struct {
	template telemetry.ShipperConfig

	mu    sync.RWMutex
	ring  telemetry.Ring
	sinks map[string]*telemetry.ShipperSink
	hist  telemetry.ShipperStats // detached members' counters, folded at rebalance
	close bool

	pendMu  sync.Mutex
	pending *telemetry.Ring
	notify  chan struct{}
	stop    chan struct{}
	done    chan struct{}

	noOwner    atomic.Uint64
	rerouted   atomic.Uint64
	rebalances atomic.Uint64
}

var (
	_ probe.Sink     = (*RoutedShipper)(nil)
	_ probe.SpanSink = (*RoutedShipper)(nil)
)

// NewRouted starts a routed shipper over cfg.Ring.
func NewRouted(cfg RouterConfig) (*RoutedShipper, error) {
	if err := cfg.Ring.Validate(); err != nil {
		return nil, err
	}
	s := &RoutedShipper{
		template: cfg.Shipper,
		ring:     cfg.Ring,
		sinks:    make(map[string]*telemetry.ShipperSink),
		notify:   make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, m := range cfg.Ring.Members {
		sink, err := s.newMemberSink(m)
		if err != nil {
			for _, prev := range s.sinks {
				prev.Close()
			}
			return nil, err
		}
		s.sinks[m.ID] = sink
	}
	go s.ringLoop()
	return s, nil
}

// newMemberSink builds one member's shipper from the template. OnRing
// feeds ring updates back into the router — rebalances propagate from
// whichever member learns first.
func (s *RoutedShipper) newMemberSink(m telemetry.RingMember) (*telemetry.ShipperSink, error) {
	cfg := s.template
	cfg.Addr = m.Addr
	cfg.OnRing = s.UpdateRing
	sink, err := telemetry.NewShipper(cfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: shipper for %s: %w", m.ID, err)
	}
	return sink, nil
}

// Append implements probe.Sink as a one-record span: O(1) plus one hash,
// never blocks.
func (s *RoutedShipper) Append(r probe.Record) {
	var tmp [1]probe.Record
	tmp[0] = r
	s.AppendSpan(tmp[:])
}

// AppendSpan implements probe.SpanSink: the records of one invocation span
// all belong to one chain (a link routes by its parent — the chain the
// stub records carry), so the whole span routes with a single hash and
// lands on its owner as a unit.
func (s *RoutedShipper) AppendSpan(recs []probe.Record) {
	if len(recs) == 0 {
		return
	}
	s.mu.RLock()
	m, ok := s.ring.OwnerOf(telemetry.RouteUUID(&recs[0]))
	var sink *telemetry.ShipperSink
	if ok {
		sink = s.sinks[m.ID]
	}
	s.mu.RUnlock()
	if sink == nil {
		// Unreachable on a validated ring; counted, never silent.
		s.noOwner.Add(uint64(len(recs)))
		return
	}
	sink.AppendSpan(recs)
}

// UpdateRing offers a new ring. Stale epochs are ignored; newer rings
// are applied asynchronously (this is called from member shippers'
// background goroutines, which the re-route must detach — applying
// inline would deadlock). The newest pending ring wins.
func (s *RoutedShipper) UpdateRing(r telemetry.Ring) {
	s.pendMu.Lock()
	if s.pending == nil || r.Epoch > s.pending.Epoch {
		rc := r
		s.pending = &rc
	}
	s.pendMu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// ringLoop applies pending ring updates.
func (s *RoutedShipper) ringLoop() {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			return
		case <-s.notify:
		}
		s.pendMu.Lock()
		r := s.pending
		s.pending = nil
		s.pendMu.Unlock()
		if r != nil {
			s.applyRing(*r)
		}
	}
}

// applyRing swaps to a newer ring: every member shipper is detached
// (handing back undelivered records), fresh shippers are built for the
// new member set, and the detached records re-route through the new
// ring. Detaching everything — not just shrunk members — is deliberate:
// a surviving member's buffer may hold records for slots it just lost,
// and only a full re-route guarantees none are delivered to a collector
// that no longer owns them.
func (s *RoutedShipper) applyRing(r telemetry.Ring) {
	if r.Validate() != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.close || r.Epoch <= s.ring.Epoch {
		return
	}
	var held []probe.Record
	for _, sink := range s.sinks {
		held = append(held, sink.Detach()...)
		// A rebalance must not wipe the member's history: keep its
		// monotonic counters so Combined() stays continuous across ring
		// swaps. Gauges (Buffered, Connected) die with the shipper.
		st := sink.Stats()
		s.hist.Appended += st.Appended
		s.hist.Dropped += st.Dropped
		s.hist.Shipped += st.Shipped
		s.hist.Batches += st.Batches
		s.hist.Bytes += st.Bytes
		s.hist.Connects += st.Connects
		s.hist.Reconnects += st.Reconnects
	}
	fresh := make(map[string]*telemetry.ShipperSink, len(r.Members))
	for _, m := range r.Members {
		sink, err := s.newMemberSink(m)
		if err != nil {
			// Shipper construction only fails on config errors, which a
			// previously valid template cannot develop; count and skip.
			continue
		}
		fresh[m.ID] = sink
	}
	s.ring = r
	s.sinks = fresh
	for i := range held {
		m, ok := r.OwnerOf(telemetry.RouteUUID(&held[i]))
		if !ok {
			s.noOwner.Add(1)
			continue
		}
		if sink := fresh[m.ID]; sink != nil {
			sink.Append(held[i])
			s.rerouted.Add(1)
		} else {
			s.noOwner.Add(1)
		}
	}
	s.rebalances.Add(1)
}

// Ring returns the ring currently routing records.
func (s *RoutedShipper) Ring() telemetry.Ring {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ring
}

// Close stops ring processing and drains every member shipper.
func (s *RoutedShipper) Close() error {
	s.mu.Lock()
	if s.close {
		s.mu.Unlock()
		<-s.done
		return nil
	}
	s.close = true
	sinks := s.sinks
	s.mu.Unlock()
	close(s.stop)
	<-s.done
	var first error
	for _, sink := range sinks {
		if err := sink.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// RouterStats snapshots the router and its member shippers.
type RouterStats struct {
	Ring       telemetry.Ring
	Members    map[string]telemetry.ShipperStats
	Detached   telemetry.ShipperStats // counters carried over from members detached at rebalances
	Rerouted   uint64                 // records re-routed across a rebalance
	Rebalances uint64                 // ring swaps applied
	NoOwner    uint64                 // records with no owning member (ring bug guard)
}

// Stats snapshots per-member and router counters.
func (s *RoutedShipper) Stats() RouterStats {
	s.mu.RLock()
	ring := s.ring
	hist := s.hist
	members := make(map[string]telemetry.ShipperStats, len(s.sinks))
	for id, sink := range s.sinks {
		members[id] = sink.Stats()
	}
	s.mu.RUnlock()
	return RouterStats{
		Ring:       ring,
		Members:    members,
		Detached:   hist,
		Rerouted:   s.rerouted.Load(),
		Rebalances: s.rebalances.Load(),
		NoOwner:    s.noOwner.Load(),
	}
}

// Combined folds the member shippers into one telemetry.ShipperStats —
// the view causeway.Process exposes regardless of whether it ships to
// one collector or a cluster. Re-routed records were counted appended
// by two shippers (the detached one and its replacement), so they are
// deducted once.
func (s *RoutedShipper) Combined() telemetry.ShipperStats {
	rs := s.Stats()
	out := rs.Detached
	for _, st := range rs.Members {
		out.Appended += st.Appended
		out.Dropped += st.Dropped
		out.Shipped += st.Shipped
		out.Batches += st.Batches
		out.Bytes += st.Bytes
		out.Connects += st.Connects
		out.Reconnects += st.Reconnects
		out.Buffered += st.Buffered
		out.Connected = out.Connected || st.Connected
		if st.LastError != "" {
			out.LastError = st.LastError
		}
	}
	out.Appended -= min(out.Appended, rs.Rerouted)
	return out
}

// WriteMetrics renders the router's counters in exposition format: the
// combined causeway_shipper_* series a single shipper exposes, then the
// ring's own.
func (s *RoutedShipper) WriteMetrics(w io.Writer) {
	rs := s.Stats()
	telemetry.WriteShipperMetrics(w, s.Combined())
	fmt.Fprintf(w, "causeway_cluster_ring_epoch %d\n", rs.Ring.Epoch)
	fmt.Fprintf(w, "causeway_cluster_ring_members %d\n", len(rs.Ring.Members))
	fmt.Fprintf(w, "causeway_cluster_rebalances_total %d\n", rs.Rebalances)
	fmt.Fprintf(w, "causeway_cluster_rerouted_records_total %d\n", rs.Rerouted)
	fmt.Fprintf(w, "causeway_cluster_no_owner_total %d\n", rs.NoOwner)
	ids := make([]string, 0, len(rs.Members))
	for id := range rs.Members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(w, "causeway_cluster_member_shipped_total{member=%q} %d\n", id, rs.Members[id].Shipped)
	}
}
