package streamrecon

import (
	"encoding/binary"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"causeway/internal/probe"
	"causeway/internal/uuid"
	"causeway/internal/workload"
)

// resolvingStore is an orderStore with the compact door: it keeps what it
// is handed resolved, in the order handed.
type resolvingStore struct{ orderStore }

func (s *resolvingStore) InsertCompacts(cs []probe.Compact, tab *probe.SymbolTable) {
	for i := range cs {
		var r probe.Record
		tab.Resolve(&r, &cs[i])
		s.recs = append(s.recs, r)
	}
}

// appendFrames hands a each of frames through the frame door, encoded and
// decoded as a collector's server decodes a ship frame.
func appendFrames(t testing.TB, a *Assembler, frames ...[]probe.Record) {
	t.Helper()
	var dec probe.FrameDecoder
	for _, recs := range frames {
		f, err := dec.DecodeFrame(probe.EncodeFrame(recs))
		if err != nil {
			t.Fatal(err)
		}
		a.AppendFrame(f)
	}
}

// Over a generated run with oneway calls and Semantics, cut into each
// process's frames, a table fed through the frame door over a store with
// the compact door hands its store what a table fed the frames' decoded
// records through AppendBatch hands a store with only Insert — the same
// records in the same order — and reports the same completions and ledger.
func TestFrameDoorMatchesRecordDoor(t *testing.T) {
	sys, err := workload.Generate(workload.Config{
		Calls: 600, Threads: 2, Processes: 3, Components: 6, Interfaces: 4, Methods: 9,
		OnewayPermille: 150, Seed: 11, Aspects: probe.AspectLatency,
	})
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]string, 0, len(sys.Sinks))
	for p := range sys.Sinks {
		procs = append(procs, p)
	}
	sort.Strings(procs)
	var frames [][]probe.Record
	links := 0
	for _, p := range procs {
		recs := sys.Sinks[p].Snapshot()
		for i := range recs {
			if i%7 == 0 {
				recs[i].Semantics = "in: " + strings.Repeat("x", i%5)
			}
			if recs[i].Kind == probe.KindLink {
				links++
			}
		}
		for len(recs) > 0 {
			n := min(len(recs), 64)
			frames = append(frames, shipped(t, recs[:n]))
			recs = recs[n:]
		}
	}
	if links == 0 {
		t.Fatal("the run holds no link record")
	}
	clock := newFakeClock()
	byRecords, byFrames := &orderStore{}, &resolvingStore{}
	batched, _ := newAssembler(t, clock, func(c *Config) { c.Store = byRecords })
	framed, _ := newAssembler(t, clock, func(c *Config) { c.Store = byFrames })
	for i, f := range frames {
		batched.AppendBatch(f)
		appendFrames(t, framed, f)
		if i%5 == 4 {
			clock.Advance(40 * time.Millisecond)
			batched.Tick()
			framed.Tick()
		}
	}
	batched.FlushOpen()
	framed.FlushOpen()
	if len(byRecords.recs) == 0 || !reflect.DeepEqual(byChain(byFrames.recs), byChain(byRecords.recs)) {
		t.Fatalf("the frame door's store holds %d records, the record door's %d, not the same", len(byFrames.recs), len(byRecords.recs))
	}
	feedB, _ := batched.Feed(0, 0)
	feedF, _ := framed.Feed(0, 0)
	if len(feedB) == 0 || !reflect.DeepEqual(byChainFeed(feedF), byChainFeed(feedB)) {
		t.Fatal("the two doors' completions differ")
	}
	if lf, lb := checkLedger(t, framed), checkLedger(t, batched); lf != lb {
		t.Fatalf("ledgers differ: frame door %+v, record door %+v", lf, lb)
	}
}

// byChain groups recs by chain — a link's under the zero chain — each
// chain's in the order handed: a Tick evicts in map order.
func byChain(recs []probe.Record) map[uuid.UUID][]probe.Record {
	out := make(map[uuid.UUID][]probe.Record)
	for _, r := range recs {
		out[r.Chain] = append(out[r.Chain], r)
	}
	return out
}

// byChainFeed keys completions by chain, feed positions aside.
func byChainFeed(comps []Completion) map[uuid.UUID]Completion {
	out := make(map[uuid.UUID]Completion)
	for _, c := range comps {
		c.ID = 0
		out[c.Chain] = c
	}
	return out
}

// One frame whose records belong to chains of two generations of symbols —
// a chain held before a name of maxSymbolBytes filled its generation, and
// a chain held after, in a fresh one — maps the frame's table into each
// generation on its own, and each chain reaches the store resolved right.
func TestFrameChainsOfTwoGenerations(t *testing.T) {
	clock := newFakeClock()
	store := &resolvingStore{}
	a, _ := newAssembler(t, clock, func(c *Config) { c.Store = store })
	older, younger := nestedChain(t, 1, 2), nestedChain(t, 2, 2)
	if older[0].Chain == younger[0].Chain {
		t.Fatal("the two chains share an id")
	}
	big := strings.Repeat("n", maxSymbolBytes)
	for i := range older {
		older[i].Process = big
	}
	appendFrames(t, a, older[:1])
	var mixed []probe.Record
	for i := range younger {
		mixed = append(mixed, younger[i])
		if i+1 < len(older) {
			mixed = append(mixed, older[i+1])
		}
	}
	appendFrames(t, a, mixed)
	if a.chains[older[0].Chain].mach.Syms == a.chains[younger[0].Chain].mach.Syms {
		t.Fatal("both chains intern in one generation")
	}
	clock.Advance(time.Second)
	if n := a.Tick(); n != 2 {
		t.Fatalf("evicted %d chains, want 2", n)
	}
	var gotOlder, gotYounger []probe.Record
	for _, r := range store.recs {
		if r.Chain == older[0].Chain {
			gotOlder = append(gotOlder, r)
		} else {
			gotYounger = append(gotYounger, r)
		}
	}
	if !reflect.DeepEqual(gotOlder, shipped(t, older)) || !reflect.DeepEqual(gotYounger, shipped(t, younger)) {
		t.Fatal("a chain of the mixed frame resolves to records it was not sent")
	}
	checkLedger(t, a)
}

// withUnusedEntries is body with strs added to the end of its string
// table, where no record names them.
func withUnusedEntries(body []byte, strs ...string) []byte {
	le := binary.LittleEndian
	n, off := le.Uint32(body), 4
	for i := uint32(0); i < n; i++ {
		off += 4 + int(le.Uint32(body[off:]))
	}
	out := le.AppendUint32(nil, n+uint32(len(strs)))
	out = append(out, body[4:off]...)
	for _, s := range strs {
		out = le.AppendUint32(out, uint32(len(s)))
		out = append(out, s...)
	}
	return append(out, body[off:]...)
}

// A frame whose string table holds entries no record names grows no
// generation of symbols: a table fed it holds what a table fed the frame
// without them holds, and its store the same records.
func TestFrameUnusedEntriesGrowNoGeneration(t *testing.T) {
	recs := nestedChain(t, 3, 2)
	body := probe.EncodeFrame(recs)
	padded := withUnusedEntries(body, "a name no record has", "nor this one")
	var dec probe.FrameDecoder
	if got, err := dec.Decode(padded); err != nil || !reflect.DeepEqual(got, shipped(t, recs)) {
		t.Fatalf("the padded frame decodes to other records (%v)", err)
	}
	var lens, sizes []int
	var stored [][]probe.Record
	for _, b := range [][]byte{body, padded} {
		clock := newFakeClock()
		store := &resolvingStore{}
		a, _ := newAssembler(t, clock, func(c *Config) { c.Store = store })
		f, err := dec.DecodeFrame(b)
		if err != nil {
			t.Fatal(err)
		}
		a.AppendFrame(f)
		lens, sizes = append(lens, a.syms.Table(0).Len()), append(sizes, a.syms.Table(0).Bytes())
		clock.Advance(time.Second)
		a.Tick()
		stored = append(stored, store.recs)
	}
	if lens[0] != lens[1] || sizes[0] != sizes[1] {
		t.Fatalf("unused entries grew the generation: %d symbols of %d bytes, against %d of %d", lens[1], sizes[1], lens[0], sizes[0])
	}
	if !reflect.DeepEqual(stored[1], stored[0]) || len(stored[0]) != len(recs) {
		t.Fatal("the padded frame stored other records")
	}
}

// A link record taken through the frame door reaches the store whole, its
// link block and its strings as sent.
func TestFrameLinkReachesStoreWhole(t *testing.T) {
	clock := newFakeClock()
	store := &resolvingStore{}
	a, _ := newAssembler(t, clock, func(c *Config) { c.Store = store })
	link := probe.Record{
		Kind: probe.KindLink, Process: "client", ProcType: "x86", Thread: 3,
		Op:         probe.OpID{Component: "c", Interface: "I", Operation: "post", Object: "o"},
		LinkParent: uuid.UUID{0: 1}, LinkParentSeq: 4, LinkChild: uuid.UUID{0: 2}, Semantics: "in: 1",
	}
	appendFrames(t, a, []probe.Record{link})
	clock.Advance(time.Second)
	a.Tick()
	if !reflect.DeepEqual(store.recs, shipped(t, []probe.Record{link})) {
		t.Fatalf("store holds %+v, want the link as sent", store.recs)
	}
}
