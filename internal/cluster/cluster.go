// Package cluster scales the collection tier horizontally: N ingest
// collectors each own a contiguous range of the chain-hash ring, an
// aggregator merges their partial views into one fleet DSCG, and a
// segment replayer moves a hash range to its new owner when the ring
// rebalances.
//
// The design lifts the chain-atomicity argument the tracestore shards
// already make to the process topology. A chain's constant Function
// UUID keys every one of its events, and oneway children inherit the
// root's FTL, so routing by uuid.Hash64 of the chain (links by their
// parent chain) lands every chain whole on exactly one collector — no
// cross-collector reassembly, no coordination on the hot path. The
// related distributed-monitoring line of work (Nazarpour et al.) shows
// global-state monitoring stays sound when observation decomposes into
// per-site observers whose partial views merge; chain-range ownership
// is that decomposition, and the merge preserves per-chain atomicity by
// construction.
//
// Conservation is the second invariant: rebalancing must lose no chain
// and count none twice. Every collector keeps the ledger equation
//
//	Appended + Replayed == Persisted + Discarded + Buffered + Retired
//
// where Replayed counts records accepted (post-dedup) from segment
// replay and Retired counts records whose range moved away. The
// replayer retires exactly the records the new owner accepted, so
// sum(Replayed) == sum(Retired) across the tier and the fleet total
// reduces to the familiar streaming equation — asserted in tests, and
// inspectable live via `causectl cluster`.
package cluster

import (
	"fmt"
	"sort"
	"strings"

	"causeway/internal/telemetry"
	"causeway/internal/uuid"
)

// DefaultSlots is the default ring size. 64 slots over a handful of
// collectors keeps spans contiguous yet fine-grained enough that a
// rebalance moves ~1/N of the hash space.
const DefaultSlots = 64

// Assign partitions a power-of-two slot space evenly across members and
// returns the ring at the given epoch. Members are sorted by ID first,
// so every caller with the same member set computes byte-identical
// rings — the property that lets shippers, collectors, and replayers
// agree on ownership from configuration alone, before any handshake.
// Member Start/End fields are ignored on input and overwritten.
func Assign(epoch uint64, slots int, members []telemetry.RingMember) (telemetry.Ring, error) {
	if slots <= 0 {
		slots = DefaultSlots
	}
	if slots&(slots-1) != 0 {
		return telemetry.Ring{}, fmt.Errorf("cluster: slot count %d is not a power of two", slots)
	}
	if len(members) == 0 {
		return telemetry.Ring{}, fmt.Errorf("cluster: no members to assign")
	}
	if len(members) > slots {
		return telemetry.Ring{}, fmt.Errorf("cluster: %d members exceed %d slots", len(members), slots)
	}
	ms := make([]telemetry.RingMember, len(members))
	copy(ms, members)
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	for i := 1; i < len(ms); i++ {
		if ms[i].ID == ms[i-1].ID {
			return telemetry.Ring{}, fmt.Errorf("cluster: duplicate member id %q", ms[i].ID)
		}
	}
	// Even spans; the first (slots mod n) members absorb the remainder.
	n := len(ms)
	span, rem := slots/n, slots%n
	next := 0
	for i := range ms {
		size := span
		if i < rem {
			size++
		}
		ms[i].Start = next
		ms[i].End = next + size
		if ms[i].Addr == "" {
			ms[i].Addr = ms[i].ID
		}
		next = ms[i].End
	}
	r := telemetry.Ring{Epoch: epoch, Slots: slots, Members: ms}
	if err := r.Validate(); err != nil {
		return telemetry.Ring{}, err
	}
	return r, nil
}

// SplitAddrs parses a comma-separated address list — a -peers flag, a
// process's ShipTo — trimming blanks and dropping empty entries.
func SplitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// Members builds the member list for Assign from telemetry addresses
// (each address is both ID and dial target).
func Members(addrs ...string) []telemetry.RingMember {
	out := make([]telemetry.RingMember, len(addrs))
	for i, a := range addrs {
		out[i] = telemetry.RingMember{ID: a, Addr: a}
	}
	return out
}

// MemberByID finds a ring member.
func MemberByID(r telemetry.Ring, id string) (telemetry.RingMember, bool) {
	for _, m := range r.Members {
		if m.ID == id {
			return m, true
		}
	}
	return telemetry.RingMember{}, false
}

// OwnedBy returns a predicate selecting the UUIDs that ring assigns to
// the named member — the shape tracestore.RangeRecords consumes.
func OwnedBy(ring telemetry.Ring, memberID string) func(uuid.UUID) bool {
	return func(u uuid.UUID) bool {
		m, ok := ring.OwnerOf(u)
		return ok && m.ID == memberID
	}
}

// MovedTo returns a predicate selecting the UUIDs that newRing assigns
// to the named member but oldRing assigned to someone else (or to no
// one) — the hash range the member must replay from its previous
// owner's segments after a rebalance.
func MovedTo(oldRing, newRing telemetry.Ring, memberID string) func(uuid.UUID) bool {
	return func(u uuid.UUID) bool {
		nm, ok := newRing.OwnerOf(u)
		if !ok || nm.ID != memberID {
			return false
		}
		om, had := oldRing.OwnerOf(u)
		return !had || om.ID != memberID
	}
}

// MovedFrom returns a predicate selecting the UUIDs oldRing assigned
// to the donor that newRing assigns to the target — the hash range the
// donor replays out of its own segments to one new owner. The
// donor-side dual of MovedTo: the union of MovedFrom over every target
// is exactly the donor's lost range, and automated membership drives
// one Replay per non-empty target range.
func MovedFrom(oldRing, newRing telemetry.Ring, donorID, targetID string) func(uuid.UUID) bool {
	return func(u uuid.UUID) bool {
		om, had := oldRing.OwnerOf(u)
		if !had || om.ID != donorID {
			return false
		}
		nm, ok := newRing.OwnerOf(u)
		return ok && nm.ID == targetID && nm.ID != donorID
	}
}
