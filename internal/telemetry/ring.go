package telemetry

import (
	"fmt"
	"strings"

	"causeway/internal/probe"
	"causeway/internal/uuid"
)

// Ring is the cluster's chain-hash ownership map: a power-of-two slot
// space partitioned into contiguous spans, one per ingest collector. A
// chain's slot is its Function UUID's canonical hash (uuid.Hash64 — the
// same hash the tracestore shards and head sampling key on) masked to
// the slot count, so "which collector owns this chain" is a pure
// function of the chain id, computable identically by every shipper,
// collector, and replayer without coordination.
//
// The ring travels in the telemetry handshake reply, which a poll asks
// for again; Epoch orders revisions so a shipper polling two collectors
// mid-rebalance keeps the newest view.
type Ring struct {
	// Epoch increments on every rebalance; higher wins.
	Epoch uint64
	// Slots is the size of the hash space, a power of two.
	Slots int
	// Members partitions [0, Slots) into contiguous spans, sorted by
	// Start. Every slot belongs to exactly one member.
	Members []RingMember
}

// RingMember is one ingest collector's identity and slot span.
type RingMember struct {
	// ID names the collector — its advertised telemetry address.
	ID string
	// Addr is the telemetry address shippers dial for this member's
	// span. Usually equal to ID; split so tests can rebind.
	Addr string
	// Start and End bound the member's span: slots s with
	// Start <= s < End belong to this member.
	Start, End int
}

// IsZero reports whether r carries no ring at all.
func (r Ring) IsZero() bool { return r.Slots == 0 && len(r.Members) == 0 }

// SlotOf maps a chain UUID to its ring slot.
func (r Ring) SlotOf(chain uuid.UUID) int {
	return int(uuid.Hash64(chain) & uint64(r.Slots-1))
}

// RouteUUID is the UUID a record routes by: events by their chain, links
// by the parent chain — the same rule tracestore shards route by, so a
// chain (and the links its parent recorded) lands whole on one owner.
func RouteUUID(rec *probe.Record) uuid.UUID {
	if rec.Kind == probe.KindLink {
		return rec.LinkParent
	}
	return rec.Chain
}

// OwnerOf returns the member owning a chain UUID.
func (r Ring) OwnerOf(chain uuid.UUID) (RingMember, bool) {
	if i := r.ownerIndex(chain); i >= 0 {
		return r.Members[i], true
	}
	return RingMember{}, false
}

// ownerIndex returns the position in Members of the member owning a chain
// UUID, -1 when none does.
func (r Ring) ownerIndex(chain uuid.UUID) int {
	if r.Slots <= 0 {
		return -1
	}
	slot := r.SlotOf(chain)
	for i, m := range r.Members {
		if slot >= m.Start && slot < m.End {
			return i
		}
	}
	return -1
}

// Validate checks the structural invariants: power-of-two slot count,
// members that name themselves and an address to dial, and member spans
// that tile [0, Slots) exactly, in order, with no gaps or overlaps.
func (r Ring) Validate() error {
	if r.Slots <= 0 || r.Slots&(r.Slots-1) != 0 {
		return fmt.Errorf("telemetry: ring: slot count %d is not a power of two", r.Slots)
	}
	if len(r.Members) == 0 {
		return fmt.Errorf("telemetry: ring: no members")
	}
	next := 0
	for i, m := range r.Members {
		if m.ID == "" {
			return fmt.Errorf("telemetry: ring: member %d has no id", i)
		}
		if m.Addr == "" {
			return fmt.Errorf("telemetry: ring: member %s has no address", m.ID)
		}
		if m.Start != next {
			return fmt.Errorf("telemetry: ring: member %s span starts at %d, want %d (gap or overlap)", m.ID, m.Start, next)
		}
		if m.End <= m.Start {
			return fmt.Errorf("telemetry: ring: member %s has empty span [%d,%d)", m.ID, m.Start, m.End)
		}
		next = m.End
	}
	if next != r.Slots {
		return fmt.Errorf("telemetry: ring: spans cover %d of %d slots", next, r.Slots)
	}
	return nil
}

// String renders the ring compactly for logs and causectl.
func (r Ring) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch %d, %d slots:", r.Epoch, r.Slots)
	for _, m := range r.Members {
		fmt.Fprintf(&b, " %s=[%d,%d)", m.ID, m.Start, m.End)
	}
	return b.String()
}
