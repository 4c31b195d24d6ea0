package ftl

import (
	"sync"
	"testing"
	"testing/quick"

	"causeway/internal/gls"
	"causeway/internal/uuid"
)

func TestEventStringsAndProbeNumbers(t *testing.T) {
	cases := []struct {
		ev    Event
		str   string
		probe int
	}{
		{StubStart, "stub_start", 1},
		{SkelStart, "skel_start", 2},
		{SkelEnd, "skel_end", 3},
		{StubEnd, "stub_end", 4},
	}
	for _, c := range cases {
		if c.ev.String() != c.str {
			t.Errorf("%v.String() = %q, want %q", c.ev, c.ev.String(), c.str)
		}
		if c.ev.ProbeNumber() != c.probe {
			t.Errorf("%v.ProbeNumber() = %d, want %d", c.ev, c.ev.ProbeNumber(), c.probe)
		}
		if !c.ev.Valid() {
			t.Errorf("%v not Valid", c.ev)
		}
	}
	if Event(0).Valid() || Event(5).Valid() {
		t.Error("out-of-range events report Valid")
	}
	if Event(9).ProbeNumber() != 0 {
		t.Error("invalid event has a probe number")
	}
}

func TestNextSeq(t *testing.T) {
	var f FTL
	for want := uint64(1); want <= 10; want++ {
		if got := f.NextSeq(); got != want {
			t.Fatalf("NextSeq = %d, want %d", got, want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	fn := func(raw [16]byte, seq uint64, flags uint8) bool {
		in := FTL{Chain: uuid.UUID(raw), Seq: seq, Flags: flags}
		buf := in.Encode(nil)
		if len(buf) != WireSize {
			return false
		}
		out, rest, err := Decode(buf)
		return err == nil && len(rest) == 0 && out == in
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

// TestDecodeEveryTruncationOffset mirrors the tracestore torn-tail fuzz:
// a wire FTL cut at every possible offset must be rejected cleanly (no
// partial parse, no panic), and only the full WireSize buffer decodes.
func TestDecodeEveryTruncationOffset(t *testing.T) {
	fn := func(raw [16]byte, seq uint64, flags uint8) bool {
		in := FTL{Chain: uuid.UUID(raw), Seq: seq, Flags: flags}
		buf := in.Encode(nil)
		for cut := 0; cut < WireSize; cut++ {
			out, rest, err := Decode(buf[:cut])
			if err == nil {
				return false // truncated buffer accepted
			}
			if out != (FTL{}) || len(rest) != cut {
				return false // partial parse leaked state
			}
		}
		out, rest, err := Decode(buf)
		return err == nil && len(rest) == 0 && out == in
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestSampledFlag(t *testing.T) {
	var f FTL
	if !f.Sampled() {
		t.Fatal("zero-value FTL must be sampled (backward compatibility)")
	}
	f.Flags |= FlagDropped
	if f.Sampled() {
		t.Fatal("FlagDropped FTL reports sampled")
	}
	// The flag survives the wire.
	out, _, err := Decode(f.Encode(nil))
	if err != nil || out.Sampled() {
		t.Fatalf("flag lost on wire: %+v err=%v", out, err)
	}
}

// TestBeginChildInheritsFlags: oneway child chains copy the parent's
// sampling decision, keeping the chain tree the sampling unit.
func TestBeginChildInheritsFlags(t *testing.T) {
	tun := NewTunnel(&uuid.SequentialGenerator{Seed: 11})
	for _, flags := range []uint8{0, FlagDropped} {
		parent := FTL{Chain: uuid.New(), Seq: 3, Flags: flags}
		child, _ := tun.BeginChild(parent)
		if child.Flags != flags {
			t.Fatalf("child flags = %#x, want %#x", child.Flags, flags)
		}
	}
}

func TestDecodeLeavesRemainder(t *testing.T) {
	in := FTL{Chain: uuid.New(), Seq: 7}
	buf := in.Encode(nil)
	buf = append(buf, 0xAA, 0xBB)
	out, rest, err := Decode(buf)
	if err != nil || out != in {
		t.Fatalf("Decode: %v %v", out, err)
	}
	if len(rest) != 2 || rest[0] != 0xAA {
		t.Fatalf("remainder = %x", rest)
	}
}

func TestDecodeShortBuffer(t *testing.T) {
	if _, _, err := Decode(make([]byte, WireSize-1)); err == nil {
		t.Fatal("Decode accepted short buffer")
	}
}

// TestConstantWireSize is invariant I3: FTL size does not grow with chain
// depth, unlike a concatenating trace object.
func TestConstantWireSize(t *testing.T) {
	f := FTL{Chain: uuid.New()}
	first := len(f.Encode(nil))
	for depth := 0; depth < 100000; depth++ {
		f.NextSeq()
	}
	if got := len(f.Encode(nil)); got != first {
		t.Fatalf("wire size changed with depth: %d -> %d", first, got)
	}
}

// TestHiddenParamCodecAllocFree pins the hidden parameter's per-hop codec
// (BenchmarkFigure2Tunnel/hidden-param-codec) at zero allocations: an FTL
// encodes into the caller's buffer and decodes by value.
func TestHiddenParamCodecAllocFree(t *testing.T) {
	f := FTL{Chain: uuid.New()}
	buf := make([]byte, 0, WireSize)
	if a := testing.AllocsPerRun(1000, func() {
		f.NextSeq()
		buf = f.Encode(buf[:0])
		if out, _, err := Decode(buf); err != nil || out != f {
			t.Fatalf("Decode = %+v, %v; want %+v", out, err, f)
		}
	}); a != 0 {
		t.Fatalf("hidden-parameter encode+decode allocates %v per hop, want 0", a)
	}
}

// TestTunnelStoreFetchAllocFree pins the tunnel's per-hop TSS operations
// (BenchmarkFigure2Tunnel/tss-store-fetch) at zero allocations on a
// registered goroutine, the identity every dispatch goroutine has.
func TestTunnelStoreFetchAllocFree(t *testing.T) {
	gls.Register()
	defer gls.Unregister()
	tun := NewTunnel(nil)
	defer tun.Clear()
	f := FTL{Chain: uuid.New()}
	if a := testing.AllocsPerRun(1000, func() {
		tun.Store(f)
		if got, ok := tun.Current(); !ok || got != f {
			t.Fatalf("Current = %+v, %v; want %+v", got, ok, f)
		}
	}); a != 0 {
		t.Fatalf("tunnel store+fetch allocates %v per hop, want 0", a)
	}
}

func TestTunnelTopLevelBeginsFreshChain(t *testing.T) {
	tun := NewTunnel(&uuid.SequentialGenerator{Seed: 1})
	f, fresh := tun.CurrentOrBegin()
	if !fresh {
		t.Fatal("expected fresh chain on unannotated thread")
	}
	if f.Chain.IsNil() || f.Seq != 0 {
		t.Fatalf("fresh FTL = %v", f)
	}
	tun.Store(f)
	g, fresh2 := tun.CurrentOrBegin()
	if fresh2 || g != f {
		t.Fatalf("annotated thread restarted chain: %v fresh=%v", g, fresh2)
	}
	tun.Clear()
	if tun.Annotated() != 0 {
		t.Fatal("annotation leaked after Clear")
	}
}

func TestTunnelIsolationAcrossGoroutines(t *testing.T) {
	tun := NewTunnel(&uuid.SequentialGenerator{Seed: 2})
	var wg sync.WaitGroup
	chains := make(chan uuid.UUID, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, fresh := tun.CurrentOrBegin()
			if !fresh {
				t.Error("goroutine inherited another's chain")
			}
			tun.Store(f)
			defer tun.Clear()
			got, ok := tun.Current()
			if !ok || got.Chain != f.Chain {
				t.Error("tunnel returned foreign FTL")
			}
			chains <- f.Chain
		}()
	}
	wg.Wait()
	close(chains)
	seen := map[uuid.UUID]bool{}
	for c := range chains {
		if seen[c] {
			t.Fatal("two top-level goroutines shared a chain id")
		}
		seen[c] = true
	}
}

func TestBeginChildLinks(t *testing.T) {
	tun := NewTunnel(&uuid.SequentialGenerator{Seed: 3})
	parent := FTL{Chain: uuid.New(), Seq: 42}
	child, link := tun.BeginChild(parent)
	if child.Seq != 0 || child.Chain.IsNil() || child.Chain == parent.Chain {
		t.Fatalf("child = %v", child)
	}
	if link.Parent != parent.Chain || link.ParentSeq != 42 || link.Child != child.Chain {
		t.Fatalf("link = %+v", link)
	}
}

func TestSwapRestore(t *testing.T) {
	tun := NewTunnel(nil)
	a := FTL{Chain: uuid.New(), Seq: 1}
	b := FTL{Chain: uuid.New(), Seq: 9}
	tun.Store(a)
	prev, had := tun.Swap(b)
	if !had || prev != a {
		t.Fatalf("Swap = %v, %v", prev, had)
	}
	if cur, _ := tun.Current(); cur != b {
		t.Fatalf("after swap Current = %v", cur)
	}
	tun.Restore(prev, had)
	if cur, _ := tun.Current(); cur != a {
		t.Fatalf("after restore Current = %v", cur)
	}
	tun.Clear()

	// Swap on an unannotated thread, then Restore(had=false) clears.
	prev, had = tun.Swap(b)
	if had {
		t.Fatalf("Swap on empty reported had=true (%v)", prev)
	}
	tun.Restore(prev, had)
	if _, ok := tun.Current(); ok {
		t.Fatal("Restore(had=false) left an annotation")
	}
}

func BenchmarkEncode(b *testing.B) {
	f := FTL{Chain: uuid.New(), Seq: 123}
	buf := make([]byte, 0, WireSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = f.Encode(buf[:0])
	}
}

func BenchmarkTunnelStoreCurrent(b *testing.B) {
	tun := NewTunnel(nil)
	f := FTL{Chain: uuid.New()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tun.Store(f)
		tun.Current()
	}
	tun.Clear()
}
