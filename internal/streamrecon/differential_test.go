package streamrecon

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"causeway/internal/analysis"
	"causeway/internal/ftl"
	"causeway/internal/probe"
	"causeway/internal/uuid"
)

// The drivers of analysis.ChainMachine must tell the same story about the
// same records: the monitor, fed them as they arrive and flushed, and
// ParseChainEvents, handed them sorted. The monitor's side of the contract
// is its cursor: it covers every arrival that does not fall below the seq
// its chain has already moved past, which is every arrival when seqs are
// unique, whatever the order; the two records of a tie must both arrive
// before any later record of their chain does. Below the cursor a record
// is taken for a resend and dropped.
//
// The streaming assembler, fed the same arrivals over a store and drained,
// is the third driver: each chain's eviction verdict is what
// ParseChainEvents makes of every arrival of the chain, resends included,
// and the store is handed exactly the arrivals.

func bySeq(a, b probe.Record) int { return cmp.Compare(a.Seq, b.Seq) }

// describeParse renders one chain's parse node for node — which records
// each invocation collected, its Broken mark and reason — and its anomalies
// in order.
func describeParse(roots []*analysis.Node, anomalies []analysis.Anomaly) string {
	var sb strings.Builder
	rec := func(r *probe.Compact) string {
		if r == nil {
			return "-"
		}
		return fmt.Sprintf("%d/%s/t%d", r.Seq, r.Event, r.Thread)
	}
	var walk func(n *analysis.Node, depth int)
	walk = func(n *analysis.Node, depth int) {
		fmt.Fprintf(&sb, "%*s%s oneway=%v colloc=%v [%s %s %s %s] broken=%v %q\n", depth*2, "",
			n.Op().Operation, n.Oneway, n.Collocated,
			rec(n.StubStart), rec(n.SkelStart), rec(n.SkelEnd), rec(n.StubEnd), n.Broken, n.BrokenReason)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	for _, a := range anomalies {
		fmt.Fprintf(&sb, "anomaly: %s\n", a)
	}
	return sb.String()
}

// viaMonitor feeds the arrivals to a fresh monitor, flushes it, and
// describes what it delivered, per chain.
func viaMonitor(arrivals []probe.Record) map[uuid.UUID]string {
	var got capture
	m := got.monitor()
	for _, r := range arrivals {
		m.Append(r)
	}
	m.FlushOpen()
	roots := make(map[uuid.UUID][]*analysis.Node)
	for _, r := range got.roots {
		roots[r.Chain] = append(roots[r.Chain], r)
	}
	anomalies := make(map[uuid.UUID][]analysis.Anomaly)
	for _, a := range got.anomalies {
		anomalies[a.Chain] = append(anomalies[a.Chain], a)
	}
	out := make(map[uuid.UUID]string)
	for _, r := range arrivals {
		if _, ok := out[r.Chain]; !ok && r.Kind == probe.KindEvent {
			out[r.Chain] = describeParse(roots[r.Chain], anomalies[r.Chain])
		}
	}
	return out
}

// viaParser is the offline account of the same arrivals: per chain, resent
// records dropped, the rest stably sorted by seq and parsed.
func viaParser(arrivals []probe.Record) map[uuid.UUID]string {
	byChain := make(map[uuid.UUID][]probe.Record)
	seen := make(map[probe.Record]bool)
	for _, r := range arrivals {
		if r.Kind == probe.KindEvent && !seen[r] {
			seen[r] = true
			byChain[r.Chain] = append(byChain[r.Chain], r)
		}
	}
	out := make(map[uuid.UUID]string)
	for chain, events := range byChain {
		slices.SortStableFunc(events, bySeq)
		p := analysis.ParseChainEvents(chain, events)
		out[chain] = describeParse(p.Roots, p.Anomalies)
	}
	return out
}

// verdict is what an eviction reports about one chain.
type verdict struct {
	clean, broken, anomalous bool
	roots, nodes             int
	latency                  time.Duration
	hasLatency               bool
}

// viaAssembler feeds the arrivals to a streaming assembler over a store,
// drains it, and reports each chain's eviction verdict and the records the
// store was handed. watched gives it a root consumer, so it applies each
// record as it arrives rather than at the drain.
func viaAssembler(t *testing.T, arrivals []probe.Record, watched bool) (map[uuid.UUID]verdict, []probe.Record) {
	t.Helper()
	store := &orderStore{}
	out := make(map[uuid.UUID]verdict)
	var onRoot func(RootEvent)
	if watched {
		onRoot = func(RootEvent) {}
	}
	asm, err := New(Config{
		OnRoot: onRoot,
		Store:  store,
		OnComplete: func(c Completion) {
			out[c.Chain] = verdict{
				clean: !c.Broken && !c.Anomalous, broken: c.Broken, anomalous: c.Anomalous,
				roots: c.Roots, nodes: c.Nodes, latency: c.Latency, hasLatency: c.HasLatency,
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range arrivals {
		asm.Append(r)
	}
	asm.FlushOpen()
	return out, store.recs
}

// parseVerdicts is the offline account of an eviction: per chain, every
// arrival (resends included, as the store holds them) stably sorted by seq
// and parsed; a chain evicted unclean is broken.
func parseVerdicts(arrivals []probe.Record) map[uuid.UUID]verdict {
	byChain := make(map[uuid.UUID][]probe.Record)
	for _, r := range arrivals {
		if r.Kind == probe.KindEvent {
			byChain[r.Chain] = append(byChain[r.Chain], r)
		}
	}
	out := make(map[uuid.UUID]verdict)
	for chain, events := range byChain {
		slices.SortStableFunc(events, bySeq)
		p := analysis.ParseChainEvents(chain, events)
		v := verdict{clean: p.Clean(), anomalous: len(p.Anomalies) > 0, roots: len(p.Roots)}
		v.broken = len(p.Broken) > 0 || !v.clean
		for _, r := range p.Roots {
			analysis.ComputeLatencySubtree(r)
			v.nodes += r.Count()
			if r.HasLatency && (!v.hasLatency || r.Latency > v.latency) {
				v.latency, v.hasLatency = r.Latency, true
			}
		}
		out[chain] = v
	}
	return out
}

// multiset counts records by value.
func multiset(recs []probe.Record) map[probe.Record]int {
	m := make(map[probe.Record]int, len(recs))
	for _, r := range recs {
		m[r]++
	}
	return m
}

// checkDriversAgree fails the test when the monitor and the parser differ
// on any chain of the arrivals, or when the assembler's eviction verdicts or
// the records it handed its store differ from the parser's account.
func checkDriversAgree(t *testing.T, what string, arrivals []probe.Record) {
	t.Helper()
	online, offline := viaMonitor(arrivals), viaParser(arrivals)
	if len(online) != len(offline) {
		t.Fatalf("%s: monitor saw %d chains, parser %d", what, len(online), len(offline))
	}
	for chain, want := range offline {
		if got := online[chain]; got != want {
			t.Fatalf("%s: chain %s diverges\n--- monitor, flushed\n%s--- ParseChainEvents\n%s", what, chain.Short(), got, want)
		}
	}
	parsed := parseVerdicts(arrivals)
	for _, watched := range []bool{false, true} {
		evicted, stored := viaAssembler(t, arrivals, watched)
		if len(evicted) != len(parsed) {
			t.Fatalf("%s: assembler (watched %v) evicted %d chains, parser saw %d", what, watched, len(evicted), len(parsed))
		}
		for chain, want := range parsed {
			if got := evicted[chain]; got != want {
				t.Fatalf("%s: chain %s evicted (watched %v) as %+v, parser says %+v", what, chain.Short(), watched, got, want)
			}
		}
		if !maps.Equal(multiset(stored), multiset(arrivals)) {
			t.Fatalf("%s: store (watched %v) was handed %d records, not the %d arrivals", what, watched, len(stored), len(arrivals))
		}
	}
}

// perturb turns a clean run's records into the arrivals a failing, skewed
// deployment would produce, each damage class drawn independently from r:
// records of one event class lost, a retried call renumbered at the ORB's
// seq stride, a deadline's stub_end tied with the server's skel_start, the
// processes' streams interleaved out of order, and a frame sent twice.
func perturb(r *rand.Rand, clean []probe.Record) []probe.Record {
	recs := slices.Clone(clean)
	if r.Intn(2) == 0 {
		class := ftl.Event(1 + r.Intn(4))
		recs = slices.DeleteFunc(recs, func(rec probe.Record) bool {
			return rec.Kind == probe.KindEvent && rec.Event == class && r.Intn(3) == 0
		})
	}
	if r.Intn(2) == 0 && len(recs) > 0 {
		from := recs[r.Intn(len(recs))]
		for i := range recs {
			if recs[i].Kind == probe.KindEvent && recs[i].Chain == from.Chain && recs[i].Seq >= from.Seq {
				recs[i].Seq += 4096
			}
		}
	}
	tied := -1
	if r.Intn(2) == 0 {
		// A childless sync call's four records sit together; give its
		// stub_end the skel_start's seq, as the client's error path does.
		var calls []int
		for i := 0; i+3 < len(recs); i++ {
			a, b, c, d := recs[i], recs[i+1], recs[i+2], recs[i+3]
			if a.Kind == probe.KindEvent && a.Event == ftl.StubStart && !a.Collocated && !a.Oneway &&
				b.Event == ftl.SkelStart && c.Event == ftl.SkelEnd && d.Event == ftl.StubEnd &&
				a.Chain == d.Chain && a.Op == b.Op && b.Op == c.Op && c.Op == d.Op && d.Seq == a.Seq+3 {
				calls = append(calls, i)
			}
		}
		if len(calls) > 0 {
			i := calls[r.Intn(len(calls))]
			recs[i+3].Seq = recs[i+1].Seq
			tied = i + 3
		}
	}
	var tiedRec probe.Record
	if tied >= 0 {
		tiedRec = recs[tied]
		recs = slices.Delete(recs, tied, tied+1)
	}
	if r.Intn(2) == 0 {
		r.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	}
	if tied >= 0 {
		// The cursor contract: the tie's records, in either order, arrive
		// before the chain's later ones — which keep the slots the shuffle
		// gave the chain, refilled in seq order from the tie on.
		at := slices.IndexFunc(recs, func(rec probe.Record) bool {
			return rec.Kind == probe.KindEvent && rec.Chain == tiedRec.Chain && rec.Seq == tiedRec.Seq
		})
		recs = slices.Insert(recs, at+r.Intn(2), tiedRec)
		var slots []int
		var tail []probe.Record
		for i, rec := range recs {
			if rec.Kind == probe.KindEvent && rec.Chain == tiedRec.Chain && rec.Seq >= tiedRec.Seq {
				slots, tail = append(slots, i), append(tail, rec)
			}
		}
		slices.SortStableFunc(tail, bySeq)
		for k, i := range slots {
			recs[i] = tail[k]
		}
	}
	if r.Intn(2) == 0 && len(recs) > 0 {
		from := r.Intn(len(recs))
		frame := slices.Clone(recs[from:min(len(recs), from+1+r.Intn(8))])
		recs = slices.Insert(recs, from+len(frame)+r.Intn(len(recs)-from-len(frame)+1), frame...)
	}
	return recs
}

// One fuzz input byte is one event of a single chain:
//
//	bits 0-1  event: stub_start, skel_start, skel_end, stub_end
//	bits 2-3  operation: F, G, H, or the oneway N
//	bits 4-5  seq step from the previous event: 0 a tie (at most two events
//	          share a seq), 1 and 2 the next seq, 3 a retry stride
//	bit 6     emitted by the late process, whose stream arrives after the
//	          punctual one's (the records of a tie are punctual: the cursor
//	          contract)
//	bit 7     sent again at the end of its stream
//
// Every event has its own thread, so only a resend repeats an identity.
func fuzzArrivals(data []byte) []probe.Record {
	chain := uuid.UUID{0: 0xf}
	ops := [4]string{"F", "G", "H", "N"}
	recs := make([]probe.Record, len(data))
	tied := make([]bool, len(data))
	seq := uint64(0)
	for i, b := range data {
		switch step := b >> 4 & 3; {
		case step == 0 && i > 0 && !tied[i-1]:
			tied[i-1], tied[i] = true, true
		case step == 3:
			seq += 4096
		default:
			seq++
		}
		op := b >> 2 & 3
		recs[i] = probe.Record{
			Kind: probe.KindEvent, Thread: uint64(i + 1),
			Chain: chain, Seq: seq, Event: ftl.Event(1 + b&3), Oneway: op == 3,
			Op: probe.OpID{Interface: "I", Operation: ops[op]},
		}
	}
	var streams, resent [2][]probe.Record
	for i, b := range data {
		late := 0
		if b>>6&1 == 1 && !tied[i] {
			late = 1
		}
		streams[late] = append(streams[late], recs[i])
		if b>>7 == 1 {
			resent[late] = append(resent[late], recs[i])
		}
	}
	return slices.Concat(streams[0], resent[0], streams[1], resent[1])
}

// fuzzByte is the inverse of fuzzArrivals' layout, for spelling seeds.
func fuzzByte(ev ftl.Event, op string, step int, late, resend bool) byte {
	b := byte(ev-1) | byte(strings.Index("FGHN", op))<<2 | byte(step)<<4
	if late {
		b |= 1 << 6
	}
	if resend {
		b |= 1 << 7
	}
	return b
}

// fuzzSeeds spells one input per shape the machine classifies: the clean
// patterns, each failure remnant, an impossible transition, and the
// arrival hazards (skew, tie, stride, resend).
func fuzzSeeds() map[string][]byte {
	const (
		ss, sks, ske, se = ftl.StubStart, ftl.SkelStart, ftl.SkelEnd, ftl.StubEnd
	)
	ev := func(e ftl.Event, op string) byte { return fuzzByte(e, op, 1, false, false) }
	return map[string][]byte{
		"sync-nested":      {ev(ss, "F"), ev(sks, "F"), ev(ss, "G"), ev(sks, "G"), ev(ske, "G"), ev(se, "G"), ev(ske, "F"), ev(se, "F")},
		"siblings":         {ev(ss, "F"), ev(sks, "F"), ev(ske, "F"), ev(se, "F"), ev(ss, "G"), ev(sks, "G"), ev(ske, "G"), ev(se, "G")},
		"oneway-stub-side": {ev(ss, "N"), ev(se, "N")},
		"oneway-callee":    {ev(sks, "N"), ev(ss, "F"), ev(sks, "F"), ev(ske, "F"), ev(se, "F"), ev(ske, "N")},
		"hung":             {ev(ss, "F")},
		"ends-in-body":     {ev(ss, "F"), ev(sks, "F"), ev(ss, "G")},
		"lost-skel-start":  {ev(ss, "F"), ev(ss, "G"), ev(sks, "G"), ev(ske, "G"), ev(se, "G"), ev(ske, "F"), ev(se, "F")},
		"lost-skel-entry":  {ev(ss, "F"), fuzzByte(ske, "F", 2, false, false), ev(se, "F")},
		"lost-stub-end":    {ev(ss, "F"), ev(sks, "F"), ev(ske, "F"), ev(ss, "G")},
		"lost-oneway-end":  {ev(ss, "N"), ev(ss, "F"), ev(sks, "F"), ev(ske, "F"), ev(se, "F")},
		"deadline-tie":     {ev(ss, "F"), ev(se, "F"), fuzzByte(sks, "F", 0, false, false), ev(ske, "F")},
		"tie-server-first": {ev(ss, "F"), ev(sks, "F"), fuzzByte(se, "F", 0, false, false), ev(ske, "F"), ev(ss, "G")},
		"never-dispatched": {ev(ss, "F"), ev(se, "F"), ev(ss, "G"), ev(sks, "G"), ev(ske, "G"), ev(se, "G")},
		"foreign-skel":     {ev(ss, "F"), ev(sks, "G")},
		"headless":         {ev(se, "F"), ev(ske, "G"), ev(ss, "F"), ev(sks, "F"), ev(ske, "F"), ev(se, "F")},
		"stray-in-body":    {ev(ss, "F"), ev(sks, "F"), ev(se, "G"), ev(ske, "F"), ev(se, "F")},
		"retry-stride":     {ev(ss, "F"), fuzzByte(sks, "F", 3, false, false), ev(ske, "F"), ev(se, "F")},
		"server-late":      {ev(ss, "F"), fuzzByte(sks, "F", 1, true, false), fuzzByte(ske, "F", 1, true, false), ev(se, "F")},
		"frame-resent":     {fuzzByte(ss, "F", 1, false, true), fuzzByte(sks, "F", 1, false, true), fuzzByte(ske, "F", 1, false, true), fuzzByte(se, "F", 1, false, true)},
		"tie-resent":       {ev(ss, "F"), fuzzByte(se, "F", 1, false, true), fuzzByte(sks, "F", 0, false, true), fuzzByte(ske, "F", 1, true, false)},
	}
}

// The seeds are checked in under testdata/fuzz/FuzzChainMachine, so plain
// `go test` replays them; UPDATE_FUZZ_CORPUS=1 rewrites them after the
// byte layout changes. Each must already satisfy the fuzz property.
func TestChainMachineFuzzSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzChainMachine")
	for name, data := range fuzzSeeds() {
		checkDriversAgree(t, name, fuzzArrivals(data))
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		path := filepath.Join(dir, name)
		if os.Getenv("UPDATE_FUZZ_CORPUS") != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if have, err := os.ReadFile(path); err != nil || string(have) != want {
			t.Errorf("fuzz seed %s is missing or stale (%v); rerun with UPDATE_FUZZ_CORPUS=1", path, err)
		}
	}
}

// FuzzChainMachine: any event sequence, however damaged, leaves the monitor
// (fed the arrivals, then flushed) and ParseChainEvents (handed them
// sorted) in agreement node for node, and panics neither. Inputs are cut at
// 2048 events: chains are short, and the fuzzer's time is better spent on
// many of them than on one long one.
func FuzzChainMachine(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDriversAgree(t, "fuzz input", fuzzArrivals(data[:min(len(data), 2048)]))
	})
}
