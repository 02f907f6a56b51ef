// Package faults is the deterministic fault-injection subsystem shared by
// both clique simulators. A Plan declares crash-stop, message-drop and
// message-duplication faults; an Injector samples the plan from a private
// seed and answers the engines' two hook questions — "is this node crashed
// at this instant?" and "what happens to this message?" — in a way that is
// byte-for-byte reproducible per (plan, n, seed).
//
// The injector owns its own RNG stream, separate from the protocol and
// engine streams, so a zero Plan (or a nil *Injector) leaves an execution
// identical to a fault-free run: the hooks never consume engine randomness.
//
// Instants are float64 and mean "round number" on the synchronous engine and
// "time in delay units" on the asynchronous one; a fault scheduled at instant
// t takes effect at the first hook whose instant is >= t. The paper's
// adversary controls wake-ups and delays; this package extends it with the
// crash/loss adversaries of the resilience literature (Kutten et al.,
// "Sublinear Bounds for Randomized Leader Election") so reproduction runs can
// ask at which fault rate each election guarantee breaks.
package faults

import (
	"fmt"
	"math"

	"cliquelect/internal/proto"
	"cliquelect/internal/xrand"
)

// Verdict is the injector's decision about one in-flight message.
type Verdict uint8

// Verdicts.
const (
	// Deliver passes the message through untouched.
	Deliver Verdict = iota
	// Drop loses the message: it counts as sent but is never delivered.
	Drop
	// Duplicate delivers the message twice (one extra copy).
	Duplicate
)

func (v Verdict) String() string {
	switch v {
	case Drop:
		return "drop"
	case Duplicate:
		return "duplicate"
	}
	return "deliver"
}

// Crash schedules one explicit crash-stop: node Node fails permanently at
// instant At — a round number on the sync engine, a time in delay units on
// the async one. At 0 the node fails before doing anything. The JSON tags
// are part of the elect result-cache key (elect.Fingerprint hashes the
// plan's crash list), so they are frozen.
type Crash struct {
	Node int     `json:"node"`
	At   float64 `json:"at"`
}

// DefaultCrashWindow is the horizon, in rounds/time units, over which sampled
// crash instants are drawn when Plan.CrashWindow is unset. It covers the
// makespan of every registered protocol at its usual parameters.
const DefaultCrashWindow = 8

// Adversary is an adaptive fault controller: the injector shows it every
// sent message (Observe) and asks it at every engine hook point — round
// boundaries on the sync engine, events on the async one — which nodes to
// crash-stop right now (Tick). Section 5's schedule adversary is adaptive,
// so an adaptive crash adversary is admissible in the same sense.
type Adversary interface {
	// Observe is called once per protocol send with the message's endpoints,
	// kind, payload words and the current instant.
	Observe(src, dst int, kind uint8, a, b int64, at float64)
	// Tick returns the nodes to crash-stop at instant at (may be nil or name
	// already-crashed nodes; the injector deduplicates).
	Tick(at float64) []int
}

// Plan declares the faults of one run (elect.FaultPlan is an alias). The
// zero Plan injects nothing and leaves a run byte-identical to a plain one:
// all fault sampling draws from the injector's private stream, which the
// elect layer salts off the run seed, never from the engine or protocol
// streams. Same seed + same plan reproduces the same faulted execution.
type Plan struct {
	// CrashRate makes each node independently crash-stop with this
	// probability, at an instant sampled uniformly from [0, CrashWindow).
	CrashRate float64
	// CrashWindow is the sampling horizon for CrashRate victims, in rounds
	// (sync) or time units (async); <= 0 means DefaultCrashWindow. It must
	// be finite.
	CrashWindow float64
	// Crashes schedules explicit crash-stops, in addition to sampled ones.
	Crashes []Crash
	// DropRate loses each message independently with this probability.
	DropRate float64
	// DropFirst loses the first DropFirst messages of the run outright — the
	// targeted variant that kills exactly the protocol's opening moves.
	DropFirst int
	// DupRate delivers each message twice with this probability.
	DupRate float64
	// NewAdversary, when non-nil, constructs the run's adaptive controller.
	// It is a factory, not an instance: every injector gets a fresh
	// controller, so one plan can drive many concurrent runs safely.
	NewAdversary func() Adversary
}

// IsZero reports whether the plan injects no faults at all.
func (p Plan) IsZero() bool {
	return p.CrashRate == 0 && len(p.Crashes) == 0 && p.DropRate == 0 &&
		p.DropFirst == 0 && p.DupRate == 0 && p.NewAdversary == nil
}

// Validate checks the plan against a network of n nodes.
func (p Plan) Validate(n int) error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"CrashRate", p.CrashRate}, {"DropRate", p.DropRate}, {"DupRate", p.DupRate}} {
		if f.v < 0 || f.v > 1 || math.IsNaN(f.v) {
			return fmt.Errorf("faults: %s = %v, want a probability in [0, 1]", f.name, f.v)
		}
	}
	if math.IsNaN(p.CrashWindow) || math.IsInf(p.CrashWindow, 0) {
		return fmt.Errorf("faults: CrashWindow = %v, want a finite horizon", p.CrashWindow)
	}
	if p.DropFirst < 0 {
		return fmt.Errorf("faults: DropFirst = %d", p.DropFirst)
	}
	for _, c := range p.Crashes {
		if c.Node < 0 || c.Node >= n {
			return fmt.Errorf("faults: crash schedule names invalid node %d (n = %d)", c.Node, n)
		}
		if c.At < 0 || math.IsNaN(c.At) || math.IsInf(c.At, 1) {
			return fmt.Errorf("faults: crash of node %d at instant %v, want a finite instant >= 0", c.Node, c.At)
		}
	}
	return nil
}

// Injector is one run's sampled fault state. A nil *Injector is valid and
// injects nothing, so engines call its hooks unconditionally.
type Injector struct {
	plan    Plan
	rng     *xrand.RNG
	adv     Adversary
	crashAt []float64 // per node; +Inf means never
	crashed []bool    // set when the crash is first observed by a hook
	seen    int64
	dropped int64
	duped   int64
}

// NewInjector samples the plan's fault state for a run of n nodes. The seed
// must be derived from the run's master seed without consuming the engine or
// protocol RNG streams (the elect layer salts the run seed).
func NewInjector(plan Plan, n int, seed uint64) (*Injector, error) {
	if err := plan.Validate(n); err != nil {
		return nil, err
	}
	in := &Injector{
		plan:    plan,
		rng:     xrand.New(seed),
		crashAt: make([]float64, n),
		crashed: make([]bool, n),
	}
	window := plan.CrashWindow
	if window <= 0 {
		window = DefaultCrashWindow
	}
	for u := range in.crashAt {
		in.crashAt[u] = math.Inf(1)
		if plan.CrashRate > 0 && in.rng.Bernoulli(plan.CrashRate) {
			in.crashAt[u] = window * in.rng.Float64()
		}
	}
	for _, c := range plan.Crashes {
		if c.At < in.crashAt[c.Node] {
			in.crashAt[c.Node] = c.At
		}
	}
	if plan.NewAdversary != nil {
		in.adv = plan.NewAdversary()
	}
	return in, nil
}

// Tick runs the adaptive adversary at instant at, scheduling its victims to
// crash immediately. Engines call it at every round boundary (sync) or event
// (async), before the crash checks for that instant.
func (in *Injector) Tick(at float64) {
	if in == nil || in.adv == nil {
		return
	}
	for _, u := range in.adv.Tick(at) {
		if u >= 0 && u < len(in.crashAt) && at < in.crashAt[u] {
			in.crashAt[u] = at
		}
	}
}

// CrashedAt reports whether node u is crash-stopped at instant at, recording
// the crash the first time it is observed. A crashed node neither sends nor
// receives, and a sleeping victim never wakes.
func (in *Injector) CrashedAt(u int, at float64) bool {
	if in == nil {
		return false
	}
	if in.crashed[u] {
		return true
	}
	if at >= in.crashAt[u] {
		in.crashed[u] = true
		return true
	}
	return false
}

// OnSend decides the fate of one protocol message from src to dst at instant
// at. The engine counts the message as sent regardless of the verdict; Drop
// suppresses its delivery and Duplicate delivers one extra copy.
func (in *Injector) OnSend(src, dst int, m proto.Message, at float64) Verdict {
	if in == nil {
		return Deliver
	}
	in.seen++
	if in.adv != nil {
		in.adv.Observe(src, dst, m.Kind, m.A, m.B, at)
	}
	if in.seen <= int64(in.plan.DropFirst) {
		in.dropped++
		return Drop
	}
	if in.plan.DropRate > 0 && in.rng.Bernoulli(in.plan.DropRate) {
		in.dropped++
		return Drop
	}
	if in.plan.DupRate > 0 && in.rng.Bernoulli(in.plan.DupRate) {
		in.duped++
		return Duplicate
	}
	return Deliver
}

// Record writes the run's fault record into o: the sorted indices of nodes
// whose crash was observed during the run (victims scheduled past the run's
// end are not listed), the number of messages lost, and the number of extra
// copies delivered. A nil injector records nothing.
func (in *Injector) Record(o *proto.Outcome) {
	if in == nil {
		return
	}
	for u, c := range in.crashed {
		if c {
			o.Crashed = append(o.Crashed, u)
		}
	}
	o.Dropped, o.Duplicated = in.dropped, in.duped
}

// CrashLowestSender is the canonical adaptive Adversary: it watches the
// first payload word of every message (the registered protocols put the
// sender's ID or rank there) and, at each tick, crash-stops the sender of
// the smallest value seen so far — "always kill the current front-runner".
// Use NewCrashLowestSender; the zero value crashes nobody.
type CrashLowestSender struct {
	budget int
	minVal map[int]int64 // node -> smallest first-word it ever sent
	killed map[int]bool
}

// NewCrashLowestSender returns a CrashLowestSender that crashes at most
// budget victims (budget < 1 is treated as 1).
func NewCrashLowestSender(budget int) *CrashLowestSender {
	if budget < 1 {
		budget = 1
	}
	return &CrashLowestSender{
		budget: budget,
		minVal: make(map[int]int64),
		killed: make(map[int]bool),
	}
}

// Observe implements Adversary.
func (a *CrashLowestSender) Observe(src, _ int, _ uint8, v, _ int64, _ float64) {
	if a.minVal == nil {
		return
	}
	if cur, ok := a.minVal[src]; !ok || v < cur {
		a.minVal[src] = v
	}
}

// Tick implements Adversary: it names the unkilled sender with the smallest
// observed value, one victim per tick, until the budget is spent.
func (a *CrashLowestSender) Tick(float64) []int {
	if a.budget <= 0 || len(a.minVal) == 0 {
		return nil
	}
	victim, best := -1, int64(0)
	for u, v := range a.minVal {
		if a.killed[u] {
			continue
		}
		if victim < 0 || v < best || (v == best && u < victim) {
			victim, best = u, v
		}
	}
	if victim < 0 {
		return nil
	}
	a.killed[victim] = true
	a.budget--
	return []int{victim}
}

// Interface compliance check.
var _ Adversary = (*CrashLowestSender)(nil)
