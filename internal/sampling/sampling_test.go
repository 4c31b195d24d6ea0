package sampling

import (
	"math"
	"strings"
	"testing"

	"causeway/internal/uuid"
)

func TestKeepBoundaryRates(t *testing.T) {
	gen := &uuid.SequentialGenerator{Seed: 1}
	for i := 0; i < 100; i++ {
		c := gen.NewUUID()
		if !Keep(c, 1.0) {
			t.Fatalf("rate 1.0 dropped %s", c)
		}
		if !Keep(c, 1.5) {
			t.Fatalf("rate >1 dropped %s", c)
		}
		if Keep(c, 0) {
			t.Fatalf("rate 0 kept %s", c)
		}
		if Keep(c, -0.5) {
			t.Fatalf("rate <0 kept %s", c)
		}
	}
}

// TestKeepDeterministicAndMonotone: the decision is a pure function of
// (chain, rate), and a chain kept at rate r is kept at every r' > r —
// the property that makes rate changes safe mid-run (raising the rate
// only adds chains; it never flips an in-flight keep to a drop).
func TestKeepDeterministicAndMonotone(t *testing.T) {
	gen := &uuid.SequentialGenerator{Seed: 7}
	rates := []float64{0.1, 0.25, 0.5, 0.75, 0.9}
	for i := 0; i < 500; i++ {
		c := gen.NewUUID()
		prev := false
		for _, r := range rates {
			got := Keep(c, r)
			if got != Keep(c, r) {
				t.Fatalf("Keep(%s, %g) not deterministic", c, r)
			}
			if prev && !got {
				t.Fatalf("%s kept at lower rate but dropped at %g", c, r)
			}
			prev = got
		}
	}
}

// TestKeepRateAccuracy: over many random chains the keep fraction lands
// near the configured rate.
func TestKeepRateAccuracy(t *testing.T) {
	const n = 20000
	for _, rate := range []float64{0.1, 0.5, 0.9} {
		kept := 0
		gen := uuid.RandomGenerator{}
		for i := 0; i < n; i++ {
			if Keep(gen.NewUUID(), rate) {
				kept++
			}
		}
		got := float64(kept) / n
		if math.Abs(got-rate) > 0.02 {
			t.Errorf("rate %g: kept fraction %g", rate, got)
		}
	}
}

func TestControlledSampler(t *testing.T) {
	c := NewControlled(1.0)
	if c.Rate() != 1.0 {
		t.Fatalf("Rate = %g", c.Rate())
	}
	gen := &uuid.SequentialGenerator{Seed: 3}
	for i := 0; i < 10; i++ {
		if !c.SampleHead(gen.NewUUID()) {
			t.Fatal("rate 1.0 dropped a chain")
		}
	}
	c.SetRate(0)
	if c.SampleHead(gen.NewUUID()) {
		t.Fatal("rate 0 kept a chain")
	}
	kept, dropped := c.Counts()
	if kept != 10 || dropped != 1 {
		t.Fatalf("counts = %d/%d, want 10/1", kept, dropped)
	}
	c.SetRate(2.5)
	if c.Rate() != 1 {
		t.Fatalf("SetRate failed to clamp: %g", c.Rate())
	}
	c.SetRate(math.NaN())
	if c.Rate() != 0 {
		t.Fatalf("NaN rate not clamped to 0: %g", c.Rate())
	}
	var sb strings.Builder
	c.SetRate(0.25)
	c.WriteMetrics(&sb)
	for _, want := range []string{
		"causeway_sampling_rate 0.25",
		"causeway_sampling_chains_kept_total 10",
		"causeway_sampling_chains_dropped_total 1",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, sb.String())
		}
	}
}

func TestFixedAndAlways(t *testing.T) {
	c := uuid.New()
	if !(Always{}).SampleHead(c) {
		t.Fatal("Always dropped a chain")
	}
	if Fixed(0).SampleHead(c) {
		t.Fatal("Fixed(0) kept a chain")
	}
	if !Fixed(1).SampleHead(c) {
		t.Fatal("Fixed(1) dropped a chain")
	}
}

func TestTailPolicyAlwaysKeepsInteresting(t *testing.T) {
	p := TailPolicy{NormalRate: 0} // drop every normal chain
	gen := &uuid.SequentialGenerator{Seed: 9}
	for i := 0; i < 50; i++ {
		c := gen.NewUUID()
		for _, v := range []ChainVerdict{
			{Chain: c, Slow: true},
			{Chain: c, Broken: true},
			{Chain: c, Anomalous: true},
		} {
			if !p.Retain(v) {
				t.Fatalf("interesting chain dropped: %+v", v)
			}
		}
		if p.Retain(ChainVerdict{Chain: c}) {
			t.Fatalf("normal chain kept at NormalRate 0: %s", c)
		}
	}
	if !KeepAll.Retain(ChainVerdict{Chain: gen.NewUUID()}) {
		t.Fatal("KeepAll dropped a normal chain")
	}
}

// TestTailDecorrelatedFromHead: the tail hash must not select the same
// chain subset as the head hash at the same rate, or tail retention of
// head-survivors compounds to rate^1 instead of filtering independently.
func TestTailDecorrelatedFromHead(t *testing.T) {
	const n, rate = 20000, 0.5
	gen := uuid.RandomGenerator{}
	p := TailPolicy{NormalRate: rate}
	both := 0
	for i := 0; i < n; i++ {
		c := gen.NewUUID()
		if Keep(c, rate) && p.Retain(ChainVerdict{Chain: c}) {
			both++
		}
	}
	// Independent hashes: P(head && tail) ≈ 0.25. Correlated: ≈ 0.5.
	got := float64(both) / n
	if math.Abs(got-rate*rate) > 0.02 {
		t.Fatalf("head/tail overlap %g, want ~%g (independent)", got, rate*rate)
	}
}

func TestGovernorAIMD(t *testing.T) {
	g := NewGovernor(1.0)
	if g.Rate() != 1.0 {
		t.Fatalf("start rate %g", g.Rate())
	}
	// Overload signals: drops and backlog.
	if r := g.Tick(Signals{DropsDelta: 1}); r != 0.5 {
		t.Fatalf("after drop tick rate = %g, want 0.5", r)
	}
	if r := g.Tick(Signals{Backlog: 20000}); r != 0.25 {
		t.Fatalf("after backlog tick rate = %g, want 0.25", r)
	}
	// Healthy ticks climb back additively.
	if r := g.Tick(Signals{}); math.Abs(r-0.3) > 1e-9 {
		t.Fatalf("after healthy tick rate = %g, want 0.3", r)
	}
	for i := 0; i < 100; i++ {
		g.Tick(Signals{})
	}
	if g.Rate() != 1 {
		t.Fatalf("healthy ticks did not cap at 1: %g", g.Rate())
	}
	// The floor holds under sustained overload.
	for i := 0; i < 100; i++ {
		g.Tick(Signals{DropsDelta: 5})
	}
	if g.Rate() != 0.01 {
		t.Fatalf("floor violated: %g", g.Rate())
	}
}

func TestGovernorStartRateBounds(t *testing.T) {
	// A start rate below the floor is lifted onto it — the governor
	// never reports a rate Tick could not have produced.
	if r := NewGovernor(0.0001).Rate(); r != minRate {
		t.Fatalf("start below floor: rate = %g, want %g", r, minRate)
	}
	// And the ceiling clamps from above.
	if r := NewGovernor(17.3).Rate(); r != 1 {
		t.Fatalf("start above ceiling: rate = %g, want 1", r)
	}
	// In-range rates pass through untouched.
	if r := NewGovernor(0.4).Rate(); r != 0.4 {
		t.Fatalf("in-range start mangled: %g", r)
	}
}
