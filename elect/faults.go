package elect

import (
	"fmt"
	"strconv"
	"strings"

	"cliquelect/internal/faults"
	"cliquelect/internal/xrand"
)

// Crash schedules one explicit crash-stop: node Node fails permanently at
// instant At — a round number on the sync engine, a time in delay units on
// the async simulator.
type Crash = faults.Crash

// Adversary is an adaptive fault controller (see FaultPlan.NewAdversary):
// it observes every sent message and names the nodes to crash-stop at each
// hook point.
type Adversary = faults.Adversary

// FaultPlan declares the faults injected into one run (see WithFaults); the
// knobs are documented on faults.Plan. The zero plan injects nothing and
// leaves runs byte-identical to plain ones, and a non-zero plan draws from
// a private stream salted off the run seed, so same seed + same plan
// reproduces the same faulted execution exactly.
type FaultPlan = faults.Plan

// faultSeedSalt decorrelates the injector's RNG stream from the run's master
// stream without consuming from it, so adding a zero plan (or removing a
// plan) never perturbs the underlying execution.
const faultSeedSalt = 0x5EEDFA17C0DED00D

// injector builds the run's fault injector, or nil for a zero plan. A zero
// plan is still validated: it may carry a non-finite CrashWindow, which
// would leave the run without a fingerprint.
func (c *runConfig) injector() (*faults.Injector, error) {
	if c.faults.IsZero() {
		return nil, c.faults.Validate(c.n)
	}
	return faults.NewInjector(c.faults, c.n, xrand.New(c.seed^faultSeedSalt).Uint64())
}

// WithFaults injects the plan's crash-stop/drop/duplicate faults into the
// run. Only the two deterministic simulators support fault injection; it is
// an error on the live engine. Under a non-zero plan the Result's OK field
// keeps its meaning restricted to surviving nodes: exactly one surviving
// leader and every awake surviving node decided.
func WithFaults(p FaultPlan) Option {
	return func(c *runConfig) { c.faults = p }
}

// CrashLowestSender returns an adversary factory for FaultPlan.NewAdversary
// implementing the canonical adaptive attack: watch the first payload word
// of every message (the registered protocols put the sender's ID or rank
// there) and, at each hook point, crash the sender of the smallest value
// seen so far — "always kill the current front-runner" — up to budget
// victims in total.
func CrashLowestSender(budget int) func() Adversary {
	return func() Adversary { return faults.NewCrashLowestSender(budget) }
}

// faultKnobs is the registry of CLI-facing fault-plan fields, sharing the
// knobTable machinery (and error format) with the delay-profile registry:
// all adversarial knob parsing lives in these tables.
var faultKnobs = knobTable[func(*FaultPlan, string) error]{
	kind: "fault knob",
	entries: []knobEntry[func(*FaultPlan, string) error]{
		{"crash", setFaultFloat(func(p *FaultPlan, v float64) { p.CrashRate = v })},
		{"drop", setFaultFloat(func(p *FaultPlan, v float64) { p.DropRate = v })},
		{"dup", setFaultFloat(func(p *FaultPlan, v float64) { p.DupRate = v })},
		{"window", setFaultFloat(func(p *FaultPlan, v float64) { p.CrashWindow = v })},
		{"dropfirst", setFaultInt(func(p *FaultPlan, v int) { p.DropFirst = v })},
		{"adaptive", func(p *FaultPlan, s string) error {
			v, err := strconv.Atoi(s)
			if err != nil {
				return fmt.Errorf("elect: bad fault knob value %q: %w", s, err)
			}
			if v < 1 {
				return fmt.Errorf("elect: adaptive budget %d, want >= 1 (omit the knob to disable)", v)
			}
			p.NewAdversary = CrashLowestSender(v)
			return nil
		}},
	},
}

func setFaultFloat(set func(*FaultPlan, float64)) func(*FaultPlan, string) error {
	return func(p *FaultPlan, s string) error {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fmt.Errorf("elect: bad fault knob value %q: %w", s, err)
		}
		set(p, v)
		return nil
	}
}

func setFaultInt(set func(*FaultPlan, int)) func(*FaultPlan, string) error {
	return func(p *FaultPlan, s string) error {
		v, err := strconv.Atoi(s)
		if err != nil {
			return fmt.Errorf("elect: bad fault knob value %q: %w", s, err)
		}
		set(p, v)
		return nil
	}
}

// ParseFaults resolves the CLI fault-plan syntax: a comma-separated list of
// knob=value pairs, e.g. "drop=0.1,crash=0.05,dup=0.01,dropfirst=4,window=6"
// plus "adaptive=N" for a CrashLowestSender with budget N. The empty string
// is the zero plan. It is the fault-side counterpart of ParseDelays; both
// draw their names from the same knob registry.
func ParseFaults(s string) (FaultPlan, error) {
	var p FaultPlan
	if strings.TrimSpace(s) == "" {
		return p, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return FaultPlan{}, fmt.Errorf("elect: bad fault knob %q, want name=value", strings.TrimSpace(part))
		}
		set, err := faultKnobs.lookup(strings.TrimSpace(kv[0]))
		if err != nil {
			return FaultPlan{}, err
		}
		if err := set(&p, strings.TrimSpace(kv[1])); err != nil {
			return FaultPlan{}, err
		}
	}
	return p, nil
}
