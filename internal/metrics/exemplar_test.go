package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func chainID(b byte) ChainID {
	var c ChainID
	for i := range c {
		c[i] = b
	}
	return c
}

func TestExemplarLastWriteWins(t *testing.T) {
	var h Histogram
	h.ArmExemplars()
	v := 10 * time.Millisecond
	h.ObserveEx(v, chainID(1), 100)
	h.ObserveEx(v, chainID(2), 200)
	e, ok := h.BucketExemplar(BucketOf(v))
	if !ok {
		t.Fatal("no exemplar captured")
	}
	if e.Chain != chainID(2) || e.When != 200 || e.Value != v {
		t.Fatalf("exemplar = %+v, want chain 2 when 200 value %v", e, v)
	}
}

func TestExemplarZeroChainAndUnarmed(t *testing.T) {
	var h Histogram
	// Unarmed: chain-carrying observes count but capture nothing.
	h.ObserveEx(time.Millisecond, chainID(1), 1)
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	if _, ok := h.BucketExemplar(BucketOf(time.Millisecond)); ok {
		t.Fatal("unarmed histogram captured an exemplar")
	}
	// Armed: a zero chain is the "no exemplar" sentinel.
	h.ArmExemplars()
	h.ObserveEx(time.Millisecond, ChainID{}, 2)
	if _, ok := h.BucketExemplar(BucketOf(time.Millisecond)); ok {
		t.Fatal("zero chain stamped an exemplar")
	}
}

func TestExemplarQuantileEquivalence(t *testing.T) {
	// Arming exemplars must not perturb the histogram counts: armed and
	// unarmed histograms fed the same observations agree on everything.
	var plain, armed Histogram
	armed.ArmExemplars()
	for i := 1; i <= 1000; i++ {
		v := time.Duration(i) * time.Microsecond
		plain.Observe(v)
		armed.ObserveEx(v, chainID(byte(i)), int64(i))
	}
	for _, q := range []float64{0.5, 0.95, 0.99, 1} {
		if plain.Quantile(q) != armed.Quantile(q) {
			t.Fatalf("q=%v: plain %v != armed %v", q, plain.Quantile(q), armed.Quantile(q))
		}
	}
	if plain.Count() != armed.Count() || plain.Sum() != armed.Sum() || plain.Max() != armed.Max() {
		t.Fatal("count/sum/max diverge between plain and armed histograms")
	}
}

func TestExemplarConcurrentStamp(t *testing.T) {
	var h Histogram
	h.ArmExemplars()
	const writers = 8
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent readers race the writers; the seqlock must always hand
	// back either no exemplar or a consistent one (uniform chain bytes).
	for r := 0; r < 2; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if e, ok := h.BucketExemplar(BucketOf(time.Millisecond)); ok {
					for _, b := range e.Chain[1:] {
						if b != e.Chain[0] {
							t.Error("torn exemplar read")
							return
						}
					}
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < 2000; i++ {
				h.ObserveEx(time.Millisecond, chainID(byte(w+1)), int64(i))
			}
		}(w)
	}
	writeWG.Wait()
	close(stop)
	readWG.Wait()
	if h.Count() != writers*2000 {
		t.Fatalf("count = %d, want %d", h.Count(), writers*2000)
	}
	if _, ok := h.BucketExemplar(BucketOf(time.Millisecond)); !ok {
		t.Fatal("no exemplar survived concurrent stamping")
	}
}

func TestCountOver(t *testing.T) {
	var h Histogram
	objective := 10 * time.Millisecond
	for i := 0; i < 90; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	if got := h.CountOver(objective); got != 10 {
		t.Fatalf("CountOver(%v) = %d, want 10", objective, got)
	}
	// Observations in the objective's own bucket do not count as over:
	// the objective rounds up to its bucket's upper bound.
	h.Observe(objective)
	if got := h.CountOver(objective); got != 10 {
		t.Fatalf("CountOver(%v) after in-bucket observe = %d, want 10", objective, got)
	}
}

func TestExemplarsAbove(t *testing.T) {
	var h Histogram
	h.ArmExemplars()
	objective := 5 * time.Millisecond
	h.ObserveEx(time.Millisecond, chainID(1), 10)     // below objective
	h.ObserveEx(20*time.Millisecond, chainID(2), 20)  // above, old
	h.ObserveEx(80*time.Millisecond, chainID(3), 30)  // above, fresh
	h.ObserveEx(300*time.Millisecond, chainID(4), 40) // above, fresh
	got := h.ExemplarsAbove(objective, 25, 8)
	if len(got) != 2 {
		t.Fatalf("got %d exemplars, want 2 (since filter)", len(got))
	}
	// Highest-latency buckets first.
	if got[0].Chain != chainID(4) || got[1].Chain != chainID(3) {
		t.Fatalf("order = %v,%v, want chains 4,3", got[0].Chain, got[1].Chain)
	}
	if got := h.ExemplarsAbove(objective, 0, 1); len(got) != 1 {
		t.Fatalf("max cap ignored: got %d", len(got))
	}
	if got := h.ExemplarsAbove(time.Second, 0, 8); got != nil {
		t.Fatalf("objective above all data still returned %v", got)
	}
}

func TestRegistryArmExemplars(t *testing.T) {
	r := NewRegistry()
	pre := r.Iface("Pre")
	r.ArmExemplars()
	if !pre.ExemplarsArmed() {
		t.Fatal("existing histogram not armed")
	}
	post := r.Iface("Post")
	if !post.ExemplarsArmed() {
		t.Fatal("histogram created after arming not armed")
	}
	ops := r.Op(OpKey{Interface: "I", Operation: "m"})
	if !ops.StubTime.ExemplarsArmed() || !ops.SkelTime.ExemplarsArmed() {
		t.Fatal("op histograms created after arming not armed")
	}
	r.ObserveChainEx("Post", 7*time.Millisecond, chainID(9), 77)
	e, ok := post.BucketExemplar(BucketOf(7 * time.Millisecond))
	if !ok || e.Chain != chainID(9) {
		t.Fatalf("ObserveChainEx exemplar = %+v ok=%v", e, ok)
	}
}

func TestWriteTextExemplarAnnotations(t *testing.T) {
	r := NewRegistry()
	r.ArmExemplars()
	c := chainID(0xab)
	r.ObserveChainEx("Echo", 25*time.Millisecond, c, 1234)
	var sb strings.Builder
	r.WriteText(&sb)
	out := sb.String()
	want := `chain_uuid="` + c.String() + `"`
	if !strings.Contains(out, want) {
		t.Fatalf("exposition missing exemplar annotation %s:\n%s", want, out)
	}
	// Every annotated line still starts with `name{labels} value`.
	for _, line := range strings.Split(out, "\n") {
		if i := strings.Index(line, " # "); i >= 0 {
			head := line[:i]
			if !strings.Contains(head, "} ") {
				t.Fatalf("annotated line lacks value before annotation: %q", line)
			}
			if !strings.HasPrefix(line[i+3:], `{chain_uuid="`) {
				t.Fatalf("annotation shape wrong: %q", line)
			}
		}
	}
}

func TestChainIDString(t *testing.T) {
	c := ChainID{0x0a, 0x1b, 0x2c, 0x3d, 0x4e, 0x5f, 0x60, 0x71, 0x82, 0x93, 0xa4, 0xb5, 0xc6, 0xd7, 0xe8, 0xf9}
	want := "0a1b2c3d-4e5f-6071-8293-a4b5c6d7e8f9"
	if got := c.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestExemplarObserveAllocFree pins the chain-carrying observe path at zero
// allocations with exemplars off and on (BenchmarkExemplarOverhead's two
// arms) — the probe hot path budget must not move when exemplars are on.
func TestExemplarObserveAllocFree(t *testing.T) {
	for _, armed := range []bool{false, true} {
		var h Histogram
		if armed {
			h.ArmExemplars()
		}
		c := chainID(7)
		if a := testing.AllocsPerRun(1000, func() {
			h.ObserveEx(3*time.Millisecond, c, 42)
		}); a != 0 {
			t.Fatalf("ObserveEx (armed=%v) allocates %v/op, want 0", armed, a)
		}
	}
}

// BenchmarkExemplarOverhead compares the chain-carrying observe path with
// exemplars off and on: stamping the LWW slot must cost a handful of
// atomics, not a measurable regression. TestExemplarObserveAllocFree pins
// the armed path's allocations.
func BenchmarkExemplarOverhead(b *testing.B) {
	c := chainID(5)
	b.Run("off", func(b *testing.B) {
		var h Histogram
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.ObserveEx(3*time.Millisecond, c, int64(i))
		}
	})
	b.Run("on", func(b *testing.B) {
		var h Histogram
		h.ArmExemplars()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.ObserveEx(3*time.Millisecond, c, int64(i))
		}
	})
}
