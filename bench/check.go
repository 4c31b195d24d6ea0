package main

import (
	"os"
	"path/filepath"

	"causeway/internal/analysis"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/render"
	"causeway/internal/tracestore"
	"causeway/internal/uuid"
)

// The correctness oracle. Every check that fails adds a problem to the
// measurement; one problem makes the run incorrect and the exit non-zero.

// checkStreaming asserts the conservation ledgers after a streaming
// window: the assembler's balances, nothing is left buffered, and every
// record sent is either in the store or a counted drop.
func checkStreaming(m *measurement, c *collector, sent, dropped uint64) {
	led := c.asm.Ledger()
	if led.Appended != led.Persisted+led.Discarded+led.Shed+led.Buffered {
		m.fail("assembler ledger does not balance: %+v", led)
	}
	if led.Buffered != 0 {
		m.fail("assembler still buffers %d records", led.Buffered)
	}
	if counted := led.Persisted + led.Discarded + led.Shed + dropped; sent != counted {
		m.fail("sent %d records, accounted for %d (persisted %d, discarded %d, shed %d, ring drops %d)",
			sent, counted, led.Persisted, led.Discarded, led.Shed, dropped)
	}
	if n := uint64(c.store.Len()); n != led.Persisted {
		m.fail("store holds %d records, assembler persisted %d", n, led.Persisted)
	}
	if n := c.store.Dropped(); n != 0 {
		m.fail("store dropped %d records to disk failures", n)
	}
}

// firstPass narrows a store to the chains of a stream's first pass.
type firstPass struct{ *tracestore.Store }

func (v firstPass) Chains() []uuid.UUID {
	all := v.Store.Chains()
	out := all[:0]
	for _, c := range all {
		if passOf(c) == 0 {
			out = append(out, c)
		}
	}
	return out
}

// referenceDSCG is what the offline analyzer makes of recs fed to the
// in-memory store in one go — the streaming_equiv_test.go criterion.
// corruptReference, set only by the test that proves a failed check fails
// the run, drops the reference's last record.
var corruptReference bool

func referenceDSCG(recs []probe.Record) string {
	if corruptReference && len(recs) > 0 {
		recs = recs[:len(recs)-1]
	}
	db := logdb.NewStore()
	db.Insert(recs...)
	g := analysis.ReconstructFrom(db)
	g.ComputeLatency()
	return render.DSCGString(g)
}

// checkEquivalence asserts that the DSCG reconstructed from the streamed
// trace store is byte-identical to the reference over the same records,
// on pass 0 of the stream.
func checkEquivalence(m *measurement, store *tracestore.Store, pass0 []probe.Record) {
	g := analysis.ReconstructFrom(firstPass{store})
	g.ComputeLatency()
	if render.DSCGString(g) != referenceDSCG(pass0) {
		m.fail("DSCG of the streamed store differs from the reference over the same %d records", len(pass0))
	}
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
