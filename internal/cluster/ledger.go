package cluster

import (
	"fmt"
	"io"

	"causeway/internal/streamrecon"
)

// Ledger is one collector's conservation account, generalizing the
// streaming assembler's equation across rebalances. Every record a
// collector ever accepted — fresh from a shipper (Appended) or via
// segment replay (Replayed) — must sit in exactly one bucket:
//
//	Appended + Replayed == Persisted + Discarded + Buffered + Retired
//
// Persisted/Discarded/Buffered are the assembler's buckets unchanged:
// every record the collector acknowledged reaches the store or a counted
// tail-policy discard, since the table drops nothing and overload is
// refused at the server before the ack. Retired counts records whose hash range moved away and
// were accepted by the new owner — they left this collector's ledger
// because they entered another's as Replayed. The replayer retires
// exactly what the receiver accepts (duplicates the receiver already
// held are neither Replayed there nor Retired here), so across the tier
//
//	sum(Replayed) == sum(Retired)
//
// and the fleet-wide sum collapses back to the plain streaming
// equation: no chain lost, none double-counted.
type Ledger struct {
	Appended  uint64 `json:"appended"`
	Persisted uint64 `json:"persisted"`
	Discarded uint64 `json:"discarded"`
	Buffered  uint64 `json:"buffered"`
	Replayed  uint64 `json:"replayed"`
	Retired   uint64 `json:"retired"`
	// NoOwner counts records a routed shipper dropped because no ring
	// member owned their hash — a ring bug, never a normal bucket. It
	// sits outside the conservation equation on purpose: any non-zero
	// value makes the ledger report UNBALANCED, so a misrouted record
	// can never balance silently against the other buckets. A collector
	// reports the count its fleet scrape saw; every collector sees every
	// routed process, so across collectors the views overlap and a
	// reader takes the maximum, not the sum.
	NoOwner uint64 `json:"no_owner"`
}

// unknownLedger is the ledger of a member whose account could not be
// read. The zero Ledger balances (nothing in, nothing out), so a failed
// fetch returns this instead: it can never report Balanced, and a caller
// that drops the error cannot mistake "unreachable" for "conserved".
var unknownLedger = Ledger{NoOwner: ^uint64(0)}

// FromAssembler lifts a streaming-assembler ledger into the cluster
// ledger (no replay traffic yet).
func FromAssembler(l streamrecon.Ledger) Ledger {
	return Ledger{
		Appended:  l.Appended,
		Persisted: l.Persisted,
		Discarded: l.Discarded,
		Buffered:  l.Buffered,
	}
}

// Balanced reports whether the conservation equation holds and no
// record fell outside it (NoOwner is an unconditional violation).
func (l Ledger) Balanced() bool {
	return l.NoOwner == 0 &&
		l.Appended+l.Replayed == l.Persisted+l.Discarded+l.Buffered+l.Retired
}

// Add returns the bucket-wise sum — the tier-wide ledger when applied
// across every collector that ever held records (dead ones included,
// via RecoverLedger over their surviving segments).
func (l Ledger) Add(o Ledger) Ledger {
	return Ledger{
		Appended:  l.Appended + o.Appended,
		Persisted: l.Persisted + o.Persisted,
		Discarded: l.Discarded + o.Discarded,
		Buffered:  l.Buffered + o.Buffered,
		Replayed:  l.Replayed + o.Replayed,
		Retired:   l.Retired + o.Retired,
		NoOwner:   l.NoOwner + o.NoOwner,
	}
}

// Retire moves n records out of the Persisted bucket into Retired —
// the source-side entry for a replay whose receiver accepted n records
// as new. Persisted shrinks because those records now count in the new
// owner's store (arriving there as Replayed); keeping both would count
// the chains twice in the tier sum.
func (l Ledger) Retire(n uint64) Ledger {
	if n > l.Persisted {
		n = l.Persisted
	}
	l.Persisted -= n
	l.Retired += n
	return l
}

// Sum folds ledgers bucket-wise.
func Sum(ledgers ...Ledger) Ledger {
	var total Ledger
	for _, l := range ledgers {
		total = total.Add(l)
	}
	return total
}

// String renders the ledger with its balance verdict, the same shape
// collectd prints for the assembler ledger.
func (l Ledger) String() string {
	verdict := "balanced"
	if !l.Balanced() {
		verdict = "UNBALANCED"
	}
	extra := ""
	if l.NoOwner > 0 {
		extra = fmt.Sprintf(" no_owner=%d", l.NoOwner)
	}
	return fmt.Sprintf("appended=%d replayed=%d persisted=%d discarded=%d buffered=%d retired=%d%s (%s)",
		l.Appended, l.Replayed, l.Persisted, l.Discarded, l.Buffered, l.Retired, extra, verdict)
}

// WriteMetrics emits the ledger in exposition format.
func (l Ledger) WriteMetrics(w io.Writer) {
	fmt.Fprintf(w, "causeway_cluster_ledger_appended_total %d\n", l.Appended)
	fmt.Fprintf(w, "causeway_cluster_ledger_persisted_total %d\n", l.Persisted)
	fmt.Fprintf(w, "causeway_cluster_ledger_discarded_total %d\n", l.Discarded)
	fmt.Fprintf(w, "causeway_cluster_ledger_buffered %d\n", l.Buffered)
	fmt.Fprintf(w, "causeway_cluster_ledger_replayed_total %d\n", l.Replayed)
	fmt.Fprintf(w, "causeway_cluster_ledger_retired_total %d\n", l.Retired)
	fmt.Fprintf(w, "causeway_cluster_ledger_no_owner_total %d\n", l.NoOwner)
	balanced := 0
	if l.Balanced() {
		balanced = 1
	}
	fmt.Fprintf(w, "causeway_cluster_ledger_balanced %d\n", balanced)
}
