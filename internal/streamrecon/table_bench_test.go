package streamrecon

import (
	"encoding/binary"
	"slices"
	"sort"
	"testing"
	"time"

	"causeway/internal/metrics"
	"causeway/internal/probe"
	"causeway/internal/uuid"
	"causeway/internal/workload"
)

// chainTemplate is one chain's records in arrival order, with every chain
// id it carries (its own, a link's parent and child) replaced by an index
// into the template set, so that a pass can give the set fresh ids.
type chainTemplate struct {
	recs                 []probe.Record
	chain, parent, child []uint32
}

// templates turns chains (each in arrival order) into templates, numbering
// the ids they carry in order of first appearance.
func templates(chains [][]probe.Record) []chainTemplate {
	index := map[uuid.UUID]uint32{}
	idx := func(id uuid.UUID) uint32 {
		i, ok := index[id]
		if !ok {
			i = uint32(len(index))
			index[id] = i
		}
		return i
	}
	out := make([]chainTemplate, len(chains))
	for i, recs := range chains {
		t := chainTemplate{recs: slices.Clone(recs)}
		for _, r := range recs {
			t.chain = append(t.chain, idx(r.Chain))
			t.parent = append(t.parent, idx(r.LinkParent))
			t.child = append(t.child, idx(r.LinkChild))
		}
		out[i] = t
	}
	return out
}

// echoChains is the echo-closed workload's chain: one synchronous call,
// four records, the server's pair arriving before the client's.
func echoChains(b *testing.B) []chainTemplate {
	recs := nestedChain(b, 21, 0) // stub_start, skel_start, skel_end, stub_end
	return templates([][]probe.Record{{recs[1], recs[2], recs[0], recs[3]}})
}

// figure5Chains is a synthetic run of the paper's Figure-5 system, each
// chain's records arriving process by process, as each process's shipper
// sends its own; link records travel with the chain that forked. One
// client thread makes the run, and so the benchmark, deterministic.
func figure5Chains(b *testing.B) []chainTemplate {
	sys, err := workload.Generate(workload.Config{Calls: 4000, Threads: 1, Seed: 3, Aspects: probe.AspectLatency})
	if err != nil {
		b.Fatal(err)
	}
	procs := make([]string, 0, len(sys.Sinks))
	for p := range sys.Sinks {
		procs = append(procs, p)
	}
	sort.Strings(procs)
	byChain := map[uuid.UUID][]probe.Record{}
	var order []uuid.UUID
	for _, p := range procs {
		for _, r := range sys.Sinks[p].Snapshot() {
			id := r.Chain
			if r.Kind == probe.KindLink {
				id = r.LinkParent
			}
			if _, ok := byChain[id]; !ok {
				order = append(order, id)
			}
			byChain[id] = append(byChain[id], r)
		}
	}
	chains := make([][]probe.Record, len(order))
	for i, id := range order {
		chains[i] = byChain[id]
	}
	return templates(chains)
}

// BenchmarkChainTable runs the chain table as collectd builds it — a
// store, Metrics, OnRoot and SlowThreshold — on a fake clock, and reports
// its cost per chain from arrival to eviction. Records arrive in 72-record
// ship frames, and the table ticks every 1000 chains with the clock a tenth
// of Quiescence later, so it holds about ten ticks' chains, as a collector
// ticking at that rate does; it is filled to that size before the timer
// starts. The plain runs take each frame's records through AppendBatch and
// hand evicted chains to a store with only Insert. The -frames runs take
// the path a collector's server and store take: each frame, encoded once
// in set-up, is decoded every time (DecodeFrame) and goes through
// AppendFrame, and evicted chains go through the compact door. The
// -waiting run is figure5-frames beside a standing population of quiet
// chains a parse found incomplete, ten for every chain held live, which
// stay held for the run (StaleAfter is 600 000 chains away on its clock):
// what a chain costs should not grow with them.
func BenchmarkChainTable(b *testing.B) {
	b.Run("echo", func(b *testing.B) { benchChainTable(b, echoChains(b), false, false) })
	b.Run("figure5", func(b *testing.B) { benchChainTable(b, figure5Chains(b), false, false) })
	b.Run("echo-frames", func(b *testing.B) { benchChainTable(b, echoChains(b), true, false) })
	b.Run("figure5-frames", func(b *testing.B) { benchChainTable(b, figure5Chains(b), true, false) })
	b.Run("figure5-frames-waiting", func(b *testing.B) { benchChainTable(b, figure5Chains(b), true, true) })
}

// chainID is the benchmark's id of a chain of pass pass whose template id
// is i. The pass leads, so a later pass's id is an earlier one's with its
// first eight bytes shifted.
func chainID(pass int, i uint32) (u uuid.UUID) {
	binary.BigEndian.PutUint64(u[:], uint64(pass)+1)
	binary.BigEndian.PutUint32(u[8:], i)
	return u
}

// shiftPass moves id on by passes passes.
func shiftPass(id *uuid.UUID, passes int) {
	binary.BigEndian.PutUint64(id[:], binary.BigEndian.Uint64(id[:])+uint64(passes))
}

// streamPass appends to recs template chains' records as pass pass sends
// them.
func streamPass(recs []probe.Record, tmpl []chainTemplate, pass int) []probe.Record {
	for _, t := range tmpl {
		for j := range t.recs {
			recs = append(recs, t.recs[j])
			r := &recs[len(recs)-1]
			r.Chain = chainID(pass, t.chain[j])
			if r.Kind == probe.KindLink {
				r.LinkParent, r.LinkChild = chainID(pass, t.parent[j]), chainID(pass, t.child[j])
			}
		}
	}
	return recs
}

// frameCycle encodes the frames of frameRecs records that the stream of
// tmpl's passes is cut into, over the fewest passes after which a frame
// ends where a pass does: every later cycle is the same frames with each
// chain id shifted by that many passes.
func frameCycle(tmpl []chainTemplate, frameRecs int) (bodies [][]byte, passes int) {
	perPass := 0
	for _, t := range tmpl {
		perPass += len(t.recs)
	}
	for passes = 1; passes*perPass%frameRecs != 0; passes++ {
	}
	var recs []probe.Record
	for p := 0; p < passes; p++ {
		recs = streamPass(recs, tmpl, p)
	}
	for ; len(recs) > 0; recs = recs[frameRecs:] {
		bodies = append(bodies, probe.EncodeFrame(recs[:frameRecs]))
	}
	return bodies, passes
}

func benchChainTable(b *testing.B, tmpl []chainTemplate, frames, waiting bool) {
	const frameRecs, chainsPerTick = 72, 1000
	clock := newFakeClock()
	roots := 0
	var store RecordStore = &nullStore{}
	if frames {
		store = &nullCompactStore{}
	}
	a, err := New(Config{
		Store:         store,
		Metrics:       metrics.NewRegistry(),
		OnRoot:        func(RootEvent) { roots++ },
		SlowThreshold: 100 * time.Millisecond,
		Clock:         clock.Now,
	})
	if err != nil {
		b.Fatal(err)
	}
	var bodies [][]byte
	var cyclePasses, sent, inFrame int
	var dec probe.FrameDecoder
	if frames {
		bodies, cyclePasses = frameCycle(tmpl, frameRecs)
	}
	// ship hands the table the next frame of the cycle, its chain ids
	// shifted to the cycle it is sent in.
	ship := func() {
		f, err := dec.DecodeFrame(bodies[sent%len(bodies)])
		if err != nil {
			b.Fatal(err)
		}
		shift := sent / len(bodies) * cyclePasses
		for i := range f.Records {
			shiftPass(&f.Records[i].Chain, shift)
		}
		for i := range f.Links {
			shiftPass(&f.Links[i].Parent, shift)
			shiftPass(&f.Links[i].Child, shift)
		}
		a.AppendFrame(f)
		sent++
	}
	frame := make([]probe.Record, 0, frameRecs)
	records := 0
	chain := func(i int) {
		pass, t := i/len(tmpl), &tmpl[i%len(tmpl)]
		for j := range t.recs {
			if frames {
				if inFrame++; inFrame == frameRecs {
					ship()
					inFrame = 0
				}
				continue
			}
			frame = append(frame, t.recs[j])
			r := &frame[len(frame)-1]
			r.Chain = chainID(pass, t.chain[j])
			if r.Kind == probe.KindLink {
				r.LinkParent, r.LinkChild = chainID(pass, t.parent[j]), chainID(pass, t.child[j])
			}
			if len(frame) == frameRecs {
				a.AppendBatch(frame)
				frame = frame[:0]
			}
		}
		records += len(t.recs)
		if i%chainsPerTick == chainsPerTick-1 {
			clock.Advance(a.Quiescence() / 10)
			a.Tick()
		}
	}
	if waiting {
		// Ten ticks' chains are live, so ten times that wait: each lost its
		// skel_start, so the rest park and a parse finds it broken.
		recs := nestedChain(b, 22, 0)
		lost := []probe.Record{recs[0], recs[2], recs[3]}
		for i := 0; i < 10*10*chainsPerTick; i++ {
			for _, r := range lost {
				r.Chain = chainID(1<<40, uint32(i))
				frame = append(frame, r)
			}
			if len(frame) >= frameRecs {
				a.AppendBatch(frame)
				frame = frame[:0]
			}
		}
		a.AppendBatch(frame)
		frame = frame[:0]
	}
	// Fill the table to its steady size before measuring; the waiting
	// chains are judged on the way.
	const warm = 12 * chainsPerTick
	for i := 0; i < warm; i++ {
		chain(i)
	}
	records = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := warm; i < warm+b.N; i++ {
		chain(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(records)/float64(b.N), "records/chain")
	b.ReportMetric(float64(a.OpenChains()), "held")
	if roots == 0 {
		b.Fatal("no root delivered")
	}
}
