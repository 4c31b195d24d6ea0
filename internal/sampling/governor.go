package sampling

// Signals are the metrics-plane observations the Governor steers by,
// gathered once per control tick by the collector: the streaming
// assembler's open-chain backlog, and the delta of records lost anywhere
// (shipper rings, store disk errors, assembler shedding) since the
// previous tick.
type Signals struct {
	Backlog    int    // open chains buffered in the assembler
	DropsDelta uint64 // records lost since the last tick
}

// The AIMD controller's bounds.
const (
	// minRate is the floor the rate never drops below, so a fraction
	// of chains is always observed even under overload.
	minRate = 0.01
	// decreaseFactor multiplies the rate on an overloaded tick (halve
	// on congestion, TCP-style).
	decreaseFactor = 0.5
	// increaseStep is added to the rate on a healthy tick.
	increaseStep = 0.05
	// maxBacklog is the assembler open-chain count above which a tick
	// is overloaded.
	maxBacklog = 10000
)

// Governor is the AIMD sampling-rate controller — the Guardian-style
// monitoring loop: observe the plane's own metrics, steer the head
// sampling rate, publish it back to the shippers. Not safe for
// concurrent use; the collector ticks it from one goroutine and
// publishes the result through a Controlled sampler.
type Governor struct {
	rate float64
}

// NewGovernor returns a governor starting at rate.
func NewGovernor(rate float64) *Governor {
	// The controller contract says the published rate never leaves
	// [minRate, 1] — Tick maintains it, so the starting rate must honor
	// it too, or a governor seeded below its own floor reports a rate it
	// could never have steered to.
	return &Governor{rate: max(clamp01(rate), minRate)}
}

// Rate returns the current steering decision.
func (g *Governor) Rate() float64 { return g.rate }

// Overloaded reports whether s trips an overload signal.
func (g *Governor) Overloaded(s Signals) bool {
	return s.DropsDelta > 0 || s.Backlog > maxBacklog
}

// Tick feeds one control-loop observation and returns the new rate:
// multiplicative decrease when overloaded, additive increase (capped at
// 1) when healthy.
func (g *Governor) Tick(s Signals) float64 {
	if g.Overloaded(s) {
		g.rate = max(g.rate*decreaseFactor, minRate)
	} else {
		g.rate = min(g.rate+increaseStep, 1)
	}
	return g.rate
}
