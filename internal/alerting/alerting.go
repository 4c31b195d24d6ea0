// Package alerting is the SLO plane over the live metrics registry: a
// declarative rule names a latency objective (or error budget) for an
// interface or operation, and a multi-window burn-rate evaluator walks
// the registry's histograms and counters, driving each rule through a
// pending → firing → resolved state machine.
//
// Burn rate is the classic SRE formulation: over a window W, the
// fraction of observations that violated the objective, divided by the
// rule's error budget (1 - target). Burn 1 means "spending the budget
// exactly as fast as the SLO allows"; burn 10 exhausts a 30-day budget
// in 3 days. A rule goes pending when the fast window burns above the
// threshold (sensitive, quick), and fires only when the slow window
// concurs (a sustained regression, not a blip) — the standard
// multi-window guard against flapping.
//
// What makes the plane more than a threshold check is the exemplar
// loop: while a rule is pending or firing, the evaluator harvests the
// exemplar chains stamped into the offending histogram's over-objective
// buckets (metrics.Histogram.ExemplarsAbove) and pins them into a
// sampling.PinSet, so tail sampling cannot drop the very chains that
// explain the alert. A fired alert therefore
// carries chain UUIDs that `causectl show` resolves to complete DSCGs.
package alerting

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"causeway/internal/metrics"
	"causeway/internal/sampling"
	"causeway/internal/uuid"
)

// Kind selects which registry series a rule evaluates.
type Kind int

const (
	// KindChainLatency watches the per-interface compensated chain
	// latency digests (causeway_chain_latency) — the numbers that agree
	// with the offline analyzer. The default.
	KindChainLatency Kind = iota
	// KindOpLatency watches one operation's raw skeleton service time
	// (causeway_op_skel). Selected by setting Op on a latency rule.
	KindOpLatency
	// KindErrors watches an error budget: errors over calls for one
	// operation, or summed over every operation of an interface.
	KindErrors
)

// Rule is one declarative SLO: "target of requests meet the objective,
// alert when the budget burns faster than Burn across both windows".
type Rule struct {
	// Name identifies the rule in transitions, /alertz, and logs.
	Name string
	// Iface selects the interface; required.
	Iface string
	// Op narrows a latency rule to one operation's skeleton time, or an
	// error rule to one operation's counters. Empty means the interface
	// chain-latency digest (latency) or all the interface's ops (errors).
	Op string
	// Kind is derived at validation: errors when Objective is zero,
	// otherwise chain/op latency depending on Op.
	Kind Kind
	// Objective is the latency objective; observations above it burn the
	// budget. Zero selects an error-budget rule.
	Objective time.Duration
	// Target is the SLO fraction in (0,1), e.g. 0.99: the error budget
	// is 1-Target. Defaults to 0.99.
	Target float64
	// FastWindow (default 1m) trips pending; SlowWindow (default 5x
	// fast) confirms firing.
	FastWindow time.Duration
	SlowWindow time.Duration
	// Burn is the burn-rate threshold both windows compare against.
	// Defaults to 1 (any sustained overspend alerts).
	Burn float64
	// ResolveAfter is how long both burns must stay below the threshold
	// before a firing alert resolves. Defaults to FastWindow.
	ResolveAfter time.Duration
	// MaxExemplars caps the chains pinned per incident. Defaults to 8.
	MaxExemplars int
}

// withDefaults fills the optional fields.
func (r Rule) withDefaults() Rule {
	if r.Target == 0 {
		r.Target = 0.99
	}
	if r.FastWindow == 0 {
		r.FastWindow = time.Minute
	}
	if r.SlowWindow == 0 {
		r.SlowWindow = 5 * r.FastWindow
	}
	if r.Burn == 0 {
		r.Burn = 1
	}
	if r.ResolveAfter == 0 {
		r.ResolveAfter = r.FastWindow
	}
	if r.MaxExemplars == 0 {
		r.MaxExemplars = 8
	}
	if r.Objective == 0 {
		r.Kind = KindErrors
	} else if r.Op != "" {
		r.Kind = KindOpLatency
	} else {
		r.Kind = KindChainLatency
	}
	return r
}

// validate rejects rules the evaluator cannot run. The comparisons are
// written so that NaN fails them.
func (r Rule) validate() error {
	if r.Name == "" {
		return fmt.Errorf("rule missing name")
	}
	if r.Iface == "" {
		return fmt.Errorf("rule %s: iface required", r.Name)
	}
	if !(r.Target > 0 && r.Target < 1) {
		return fmt.Errorf("rule %s: target %v outside (0,1)", r.Name, r.Target)
	}
	if r.Objective < 0 {
		return fmt.Errorf("rule %s: objective %v is negative", r.Name, r.Objective)
	}
	if r.FastWindow <= 0 || r.ResolveAfter <= 0 {
		return fmt.Errorf("rule %s: fast window %v and resolve %v must be positive", r.Name, r.FastWindow, r.ResolveAfter)
	}
	if r.SlowWindow < r.FastWindow {
		return fmt.Errorf("rule %s: slow window %v shorter than fast %v", r.Name, r.SlowWindow, r.FastWindow)
	}
	if !(r.Burn > 0 && r.Burn <= math.MaxFloat64) {
		return fmt.Errorf("rule %s: burn threshold %v must be positive and finite", r.Name, r.Burn)
	}
	if r.MaxExemplars <= 0 {
		return fmt.Errorf("rule %s: exemplars %d must be positive", r.Name, r.MaxExemplars)
	}
	return nil
}

// Family names the metric family the rule watches, in exposition form —
// the handle an operator pastes into a /metrics scrape.
func (r Rule) Family() string {
	switch r.Kind {
	case KindOpLatency:
		return fmt.Sprintf("causeway_op_skel{iface=%q,op=%q}", r.Iface, r.Op)
	case KindErrors:
		if r.Op != "" {
			return fmt.Sprintf("causeway_op_errors_total{iface=%q,op=%q}", r.Iface, r.Op)
		}
		return fmt.Sprintf("causeway_op_errors_total{iface=%q}", r.Iface)
	default:
		return fmt.Sprintf("causeway_chain_latency{iface=%q}", r.Iface)
	}
}

// State is one rule's position in the alert lifecycle.
type State int

const (
	StateInactive State = iota
	StatePending
	StateFiring
	StateResolved
)

func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateFiring:
		return "firing"
	case StateResolved:
		return "resolved"
	default:
		return "inactive"
	}
}

// MarshalJSON renders the state as its name, so /alertz is greppable.
func (s State) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON accepts a state name (the /alertz client side).
func (s *State) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "pending":
		*s = StatePending
	case "firing":
		*s = StateFiring
	case "resolved":
		*s = StateResolved
	case "inactive":
		*s = StateInactive
	default:
		return fmt.Errorf("unknown alert state %q", name)
	}
	return nil
}

// Transition is one state change, kept in a bounded ring for /alertz
// cursors and fire/resolve log lines.
type Transition struct {
	ID       uint64    `json:"id"`
	Rule     string    `json:"rule"`
	Family   string    `json:"family"`
	From     State     `json:"from"`
	To       State     `json:"to"`
	At       time.Time `json:"at"`
	FastBurn float64   `json:"fast_burn"`
	SlowBurn float64   `json:"slow_burn"`
	// Exemplars are the incident's chain UUIDs known at transition time.
	Exemplars []string `json:"exemplars,omitempty"`
}

// Config wires an Evaluator.
type Config struct {
	// Registry is the metrics plane to evaluate; required. Exemplar
	// harvesting additionally needs Registry.ArmExemplars() — the
	// evaluator arms it itself at construction.
	Registry *metrics.Registry
	// Rules are the SLOs to evaluate; validated at construction.
	Rules []Rule
	// Clock overrides time.Now for deterministic tests.
	Clock func() time.Time
	// Pins, when set, receives the exemplar chains of pending and firing
	// alerts so retention keeps them (sampling.TailPolicy.Pins).
	Pins *sampling.PinSet
	// OnTransition, when set, is called for every state change, outside
	// the evaluator lock, in transition order.
	OnTransition func(Transition)
}

// maxTransitions bounds the transition ring.
const maxTransitions = 256

// sample is one Eval's cumulative reading of a rule's series.
type sample struct {
	t     time.Time
	total uint64
	bad   uint64
}

// ruleState is one rule's evaluation state.
type ruleState struct {
	rule       Rule
	samples    []sample
	state      State
	since      time.Time // when the current state was entered
	firedAt    time.Time
	resolvedAt time.Time
	fastBurn   float64
	slowBurn   float64
	// belowSince tracks how long a firing rule has been healthy, for the
	// ResolveAfter hysteresis.
	belowSince time.Time
	// incidentStart is when the current incident went pending; exemplars
	// stamped after (incidentStart - FastWindow) belong to it.
	incidentStart time.Time
	exemplars     []metrics.Exemplar
	exSeen        map[metrics.ChainID]bool
}

// Evaluator drives the rules over the registry. Eval is called
// periodically by the owner (collectd's reporter loop, a Process
// ticker); Status and ServeAlertz snapshot it concurrently.
type Evaluator struct {
	cfg   Config
	clock func() time.Time

	mu          sync.Mutex
	rules       []*ruleState
	transitions []Transition
	nextID      uint64
}

// NewEvaluator validates the rules, arms exemplar capture on the
// registry, and returns an evaluator ready for Eval.
func NewEvaluator(cfg Config) (*Evaluator, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("alerting: Registry required")
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	e := &Evaluator{cfg: cfg, clock: clock}
	for _, r := range cfg.Rules {
		r = r.withDefaults()
		if err := r.validate(); err != nil {
			return nil, err
		}
		e.rules = append(e.rules, &ruleState{rule: r})
	}
	if len(e.rules) == 0 {
		return nil, fmt.Errorf("alerting: no rules")
	}
	cfg.Registry.ArmExemplars()
	return e, nil
}

// Rules returns the validated rules with defaults applied.
func (e *Evaluator) Rules() []Rule {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Rule, len(e.rules))
	for i, rs := range e.rules {
		out[i] = rs.rule
	}
	return out
}

// observe reads a rule's cumulative (total, bad) counts off the
// registry, and the histogram to harvest exemplars from (nil for error
// rules — counters carry no exemplars).
func (e *Evaluator) observe(r Rule) (total, bad uint64, h *metrics.Histogram) {
	switch r.Kind {
	case KindOpLatency:
		s := e.cfg.Registry.Op(metrics.OpKey{Interface: r.Iface, Operation: r.Op})
		return s.SkelTime.Count(), s.SkelTime.CountOver(r.Objective), &s.SkelTime
	case KindErrors:
		if r.Op != "" {
			s := e.cfg.Registry.Op(metrics.OpKey{Interface: r.Iface, Operation: r.Op})
			return s.Calls.Load(), s.Errors.Load(), nil
		}
		e.cfg.Registry.VisitOps(func(k metrics.OpKey, s *metrics.OpStats) {
			if k.Interface == r.Iface {
				total += s.Calls.Load()
				bad += s.Errors.Load()
			}
		})
		return total, bad, nil
	default:
		ih := e.cfg.Registry.Iface(r.Iface)
		return ih.Count(), ih.CountOver(r.Objective), ih
	}
}

// burn computes the burn rate over the window ending at now: the bad
// fraction of the window's new observations divided by the error
// budget. With no traffic in the window the budget is not burning, and
// a window the sample series does not yet span burns 0 — the evaluator
// stays quiet until it has real history, so a cold start cannot fire
// the slow window off the same burst the fast window saw (the whole
// point of the multi-window guard).
func (rs *ruleState) burn(now time.Time, window time.Duration) float64 {
	if len(rs.samples) < 2 {
		return 0
	}
	last := rs.samples[len(rs.samples)-1]
	start := now.Add(-window)
	if rs.samples[0].t.After(start) {
		return 0 // window not yet full
	}
	// Reference point: the newest sample at or before the window start.
	ref := rs.samples[0]
	for _, s := range rs.samples[1:] {
		if s.t.After(start) {
			break
		}
		ref = s
	}
	dTotal := last.total - ref.total
	if dTotal == 0 {
		return 0
	}
	dBad := last.bad - ref.bad
	budget := 1 - rs.rule.Target
	return (float64(dBad) / float64(dTotal)) / budget
}

// prune drops samples no window can reference anymore: everything older
// than the slow window except the newest such sample (the reference).
func (rs *ruleState) prune(now time.Time) {
	start := now.Add(-rs.rule.SlowWindow)
	cut := 0
	for cut+1 < len(rs.samples) && !rs.samples[cut+1].t.After(start) {
		cut++
	}
	if cut > 0 {
		rs.samples = append(rs.samples[:0], rs.samples[cut:]...)
	}
}

// Eval takes one reading of every rule and advances the state machines.
// Call it periodically — several times per FastWindow, or the windows
// have too few points to react.
func (e *Evaluator) Eval() {
	now := e.clock()
	var fired []Transition

	e.mu.Lock()
	for _, rs := range e.rules {
		total, bad, h := e.observe(rs.rule)
		rs.samples = append(rs.samples, sample{t: now, total: total, bad: bad})
		rs.prune(now)
		rs.fastBurn = rs.burn(now, rs.rule.FastWindow)
		rs.slowBurn = rs.burn(now, rs.rule.SlowWindow)

		over := rs.rule.Burn
		switch rs.state {
		case StateInactive, StateResolved:
			if rs.fastBurn >= over {
				rs.incidentStart = now
				rs.exemplars = nil
				rs.exSeen = make(map[metrics.ChainID]bool)
				fired = append(fired, e.shiftLocked(rs, StatePending, now))
			}
		case StatePending:
			switch {
			case rs.fastBurn >= over && rs.slowBurn >= over:
				rs.firedAt = now
				fired = append(fired, e.shiftLocked(rs, StateFiring, now))
			case rs.fastBurn < over:
				// The budget recovered before the slow window concurred:
				// a blip, not an incident.
				fired = append(fired, e.shiftLocked(rs, StateInactive, now))
			}
		case StateFiring:
			if rs.fastBurn < over && rs.slowBurn < over {
				if rs.belowSince.IsZero() {
					rs.belowSince = now
				}
				if now.Sub(rs.belowSince) >= rs.rule.ResolveAfter {
					rs.resolvedAt = now
					fired = append(fired, e.shiftLocked(rs, StateResolved, now))
				}
			} else {
				rs.belowSince = time.Time{}
			}
		}

		if (rs.state == StatePending || rs.state == StateFiring) && h != nil {
			e.harvestLocked(rs, h)
		}
	}
	e.mu.Unlock()

	if e.cfg.OnTransition != nil {
		for _, t := range fired {
			e.cfg.OnTransition(t)
		}
	}
}

// shiftLocked moves a rule to a new state and records the transition.
func (e *Evaluator) shiftLocked(rs *ruleState, to State, now time.Time) Transition {
	from := rs.state
	rs.state = to
	rs.since = now
	rs.belowSince = time.Time{}
	e.nextID++
	t := Transition{
		ID: e.nextID, Rule: rs.rule.Name, Family: rs.rule.Family(),
		From: from, To: to, At: now,
		FastBurn: rs.fastBurn, SlowBurn: rs.slowBurn,
		Exemplars: rs.exemplarChains(),
	}
	e.transitions = append(e.transitions, t)
	if len(e.transitions) > maxTransitions {
		e.transitions = append(e.transitions[:0], e.transitions[len(e.transitions)-maxTransitions:]...)
	}
	return t
}

// harvestLocked collects fresh over-objective exemplars into the
// incident and pins them. The freshness floor reaches one fast window
// before the incident went pending — those observations are what tripped
// it.
func (e *Evaluator) harvestLocked(rs *ruleState, h *metrics.Histogram) {
	if len(rs.exSeen) >= rs.rule.MaxExemplars {
		return
	}
	floor := rs.incidentStart.Add(-rs.rule.FastWindow).UnixNano()
	for _, ex := range h.ExemplarsAbove(rs.rule.Objective, floor, rs.rule.MaxExemplars) {
		if rs.exSeen[ex.Chain] || len(rs.exSeen) >= rs.rule.MaxExemplars {
			continue
		}
		rs.exSeen[ex.Chain] = true
		rs.exemplars = append(rs.exemplars, ex)
		if e.cfg.Pins != nil {
			e.cfg.Pins.Pin(uuid.UUID(ex.Chain))
		}
	}
}

// exemplarChains renders the incident's chains as UUID strings.
func (rs *ruleState) exemplarChains() []string {
	if len(rs.exemplars) == 0 {
		return nil
	}
	out := make([]string, len(rs.exemplars))
	for i, ex := range rs.exemplars {
		out[i] = ex.Chain.String()
	}
	return out
}

// ExemplarRef is one harvested exemplar in a status snapshot.
type ExemplarRef struct {
	Chain string        `json:"chain"`
	Value time.Duration `json:"value_ns"`
	When  time.Time     `json:"when"`
}

// Alert is one rule's status snapshot.
type Alert struct {
	Rule       string        `json:"rule"`
	Family     string        `json:"family"`
	State      string        `json:"state"`
	Since      time.Time     `json:"since"`
	FiredAt    time.Time     `json:"fired_at,omitzero"`
	ResolvedAt time.Time     `json:"resolved_at,omitzero"`
	FastBurn   float64       `json:"fast_burn"`
	SlowBurn   float64       `json:"slow_burn"`
	Objective  time.Duration `json:"objective_ns,omitempty"`
	Target     float64       `json:"target"`
	Burn       float64       `json:"burn_threshold"`
	FastWindow time.Duration `json:"fast_window_ns"`
	SlowWindow time.Duration `json:"slow_window_ns"`
	Exemplars  []ExemplarRef `json:"exemplars,omitempty"`
}

// Status is the full /alertz snapshot.
type Status struct {
	Now time.Time `json:"now"`
	// Alerts is every rule's current state, rule order preserved.
	Alerts []Alert `json:"alerts"`
	// Transitions are the retained state changes with ID > the request
	// cursor, ascending; Cursor is the newest retained ID (pass it back
	// as ?since= to poll incrementally).
	Transitions []Transition `json:"transitions"`
	Cursor      uint64       `json:"cursor"`
}

// Status snapshots every rule and the transitions after sinceID.
func (e *Evaluator) Status(sinceID uint64) Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Status{Now: e.clock(), Cursor: e.nextID}
	for _, rs := range e.rules {
		a := Alert{
			Rule: rs.rule.Name, Family: rs.rule.Family(), State: rs.state.String(),
			Since: rs.since, FiredAt: rs.firedAt, ResolvedAt: rs.resolvedAt,
			FastBurn: rs.fastBurn, SlowBurn: rs.slowBurn,
			Objective: rs.rule.Objective, Target: rs.rule.Target, Burn: rs.rule.Burn,
			FastWindow: rs.rule.FastWindow, SlowWindow: rs.rule.SlowWindow,
		}
		for _, ex := range rs.exemplars {
			a.Exemplars = append(a.Exemplars, ExemplarRef{
				Chain: ex.Chain.String(), Value: ex.Value, When: time.Unix(0, ex.When),
			})
		}
		st.Alerts = append(st.Alerts, a)
	}
	for _, t := range e.transitions {
		if t.ID > sinceID {
			st.Transitions = append(st.Transitions, t)
		}
	}
	return st
}

// Firing reports the rules currently in StateFiring.
func (e *Evaluator) Firing() []Alert {
	st := e.Status(^uint64(0))
	var out []Alert
	for _, a := range st.Alerts {
		if a.State == StateFiring.String() {
			out = append(out, a)
		}
	}
	return out
}

// WriteMetrics renders the alert plane's own series — how many rules
// are in each state — for RegisterSource.
func (e *Evaluator) WriteMetrics(w io.Writer) {
	counts := map[State]int{}
	e.mu.Lock()
	for _, rs := range e.rules {
		counts[rs.state]++
	}
	transitions := e.nextID
	e.mu.Unlock()
	fmt.Fprintf(w, "causeway_alerts_inactive %d\n", counts[StateInactive])
	fmt.Fprintf(w, "causeway_alerts_pending %d\n", counts[StatePending])
	fmt.Fprintf(w, "causeway_alerts_firing %d\n", counts[StateFiring])
	fmt.Fprintf(w, "causeway_alerts_resolved %d\n", counts[StateResolved])
	fmt.Fprintf(w, "causeway_alerts_transitions_total %d\n", transitions)
}
