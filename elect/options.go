package elect

import (
	"fmt"
	"strings"

	"cliquelect/internal/simasync"
	"cliquelect/internal/topo"
)

// DelayProfile names an adversarial delay scheduler for the asynchronous
// simulator. The live engine ignores delays: its schedule is whatever the Go
// runtime produces.
type DelayProfile string

// Delay profiles.
const (
	// DelayUnit delivers every message after exactly one time unit — the
	// synchronous-like worst case (the default).
	DelayUnit DelayProfile = "unit"
	// DelayUniform draws each delay uniformly from [0.05, 1].
	DelayUniform DelayProfile = "uniform"
	// DelaySkew makes every third sender slow (delay 1) and the rest fast.
	DelaySkew DelayProfile = "skew"
)

// delayDef couples a profile name with its scheduler constructor.
type delayDef struct {
	profile DelayProfile
	policy  func() simasync.DelayPolicy
}

// delayProfiles is the registry of delay schedulers: name resolution for
// ParseDelays/WithDelays and the policy construction for the async engine
// live in this one table (see knobTable).
var delayProfiles = knobTable[delayDef]{kind: "delay profile", entries: []knobEntry[delayDef]{
	{"", delayDef{DelayUnit, func() simasync.DelayPolicy { return simasync.UnitDelay{} }}},
	{"unit", delayDef{DelayUnit, func() simasync.DelayPolicy { return simasync.UnitDelay{} }}},
	{"uniform", delayDef{DelayUniform, func() simasync.DelayPolicy { return simasync.UniformDelay{Lo: 0.05} }}},
	{"skew", delayDef{DelaySkew, func() simasync.DelayPolicy { return simasync.SkewDelay{Fast: 0.05, Mod: 3} }}},
}}

// ParseDelays resolves a delay-profile name (as used by CLI flags). The
// empty string means DelayUnit.
func ParseDelays(name string) (DelayProfile, error) {
	def, err := delayProfiles.lookup(name)
	if err != nil {
		return "", err
	}
	return def.profile, nil
}

// delayPolicy builds the async engine's scheduler for a profile.
func delayPolicy(p DelayProfile) (simasync.DelayPolicy, error) {
	def, err := delayProfiles.lookup(string(p))
	if err != nil {
		return nil, err
	}
	return def.policy(), nil
}

// runConfig is the resolved option set of one Run.
type runConfig struct {
	n          int
	seed       uint64
	params     Params
	ids        []int64
	wakeCount  int
	wakeSet    []int
	delays     DelayProfile
	delaysSet  bool
	faults     FaultPlan
	engine     Engine
	trace      bool
	roundTrace bool
	budget     int64
	explicit   bool
	topo       string
}

// defaultRunConfig is the configuration of a Run given no options, the
// baseline resolve applies options over.
func defaultRunConfig() runConfig {
	return runConfig{n: 64, engine: EngineAuto, delays: DelayUnit, params: DefaultParams()}
}

// resolve applies opts over the defaults and checks the configuration
// against the spec. It is the one place options become a runConfig: Run,
// Fingerprint, RunCached and CheckRange all start here, so no
// configuration Run rejects here has a fingerprint. It makes every check
// Run makes before drawing from the seed, in Run's order; the checks that
// need the run's parts built (protocol parameters, explicit IDs, wake set,
// delay profile, fault plan, a topology n cannot carry) are left to run.
// It returns the configuration with its engine resolved (never EngineAuto)
// and its topology in canonical form; on an error the configuration still
// carries the options' n and seed.
func resolve(spec Spec, opts []Option) (runConfig, error) {
	cfg := defaultRunConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.n < 1 {
		return cfg, fmt.Errorf("elect: n = %d", cfg.n)
	}
	switch {
	case spec.Model == Sync && spec.buildSync != nil:
	case spec.Model == Async && spec.buildAsync != nil:
	default:
		return cfg, fmt.Errorf("elect: spec %q was not obtained from the registry (use Lookup or Registry)", spec.Name)
	}
	if cfg.engine == EngineAuto {
		cfg.engine = EngineSync
		if spec.Model == Async {
			cfg.engine = EngineAsync
		}
	}
	engine := cfg.engine
	if !spec.Supports(engine) {
		return cfg, fmt.Errorf("elect: %s runs on the %s model, not on the %s engine",
			spec.Name, spec.Model, engine)
	}
	if cfg.trace && engine != EngineSync {
		return cfg, fmt.Errorf("elect: WithTrace requires the sync engine (got %s)", engine)
	}
	if cfg.roundTrace && engine == EngineLive {
		return cfg, fmt.Errorf("elect: WithRoundTrace requires a deterministic simulator (got %s engine)", engine)
	}
	if cfg.delaysSet && engine == EngineSync {
		return cfg, fmt.Errorf("elect: WithDelays has no effect on the sync engine")
	}
	if cfg.explicit && spec.Model != Sync {
		return cfg, fmt.Errorf("elect: WithExplicit requires a synchronous spec (got %s)", spec.Name)
	}
	if !cfg.faults.IsZero() && engine == EngineLive {
		return cfg, fmt.Errorf("elect: WithFaults requires a deterministic simulator (got %s engine)", engine)
	}
	canon, err := topo.Canonical(cfg.topo)
	if err != nil {
		return cfg, err
	}
	cfg.topo = canon
	if canon != "" {
		if engine == EngineLive {
			return cfg, fmt.Errorf("elect: WithTopology requires a deterministic simulator (got %s engine)", engine)
		}
		family, _ := topo.Family(canon)
		if !spec.SupportsTopology(family) {
			return cfg, fmt.Errorf("elect: %s runs on the clique only (topologies: %s)",
				spec.Name, strings.Join(append([]string{"clique"}, spec.Topologies...), ", "))
		}
	}
	return cfg, nil
}

// Option configures a Run (and, through Batch.Options, a RunMany).
type Option func(*runConfig)

// WithN sets the number of nodes. The default is 64.
func WithN(n int) Option { return func(c *runConfig) { c.n = n } }

// WithSeed sets the master seed that drives ID assignment, wake-set
// sampling, the engines' port mappings and every protocol coin flip. On the
// deterministic engines, identical seeds reproduce identical executions.
func WithSeed(seed uint64) Option { return func(c *runConfig) { c.seed = seed } }

// WithParams sets the protocol parameters (see DefaultParams).
func WithParams(p Params) Option { return func(c *runConfig) { c.params = p } }

// WithIDs supplies an explicit ID assignment (node i gets ids[i]) instead of
// the seed-derived random assignment from the spec's required universe. The
// assignment length must equal n and the IDs must be distinct.
func WithIDs(ids []int64) Option {
	return func(c *runConfig) { c.ids = append([]int64(nil), ids...) }
}

// WithWake makes the adversary wake only count random nodes (sampled from
// the seed) instead of all n; 0 restores simultaneous wake-up.
func WithWake(count int) Option { return func(c *runConfig) { c.wakeCount = count } }

// WithWakeSet makes the adversary wake exactly the given nodes. It overrides
// WithWake.
func WithWakeSet(nodes []int) Option {
	return func(c *runConfig) { c.wakeSet = append(make([]int, 0, len(nodes)), nodes...) }
}

// WithDelays selects the asynchronous simulator's delay scheduler. It is an
// error on the sync engine; the live engine ignores it.
func WithDelays(p DelayProfile) Option {
	return func(c *runConfig) { c.delays = p; c.delaysSet = true }
}

// WithEngine pins the execution engine; the default EngineAuto picks the
// spec model's natural simulator. It is an error to pin an engine the spec
// does not support (see Spec.Engines).
func WithEngine(e Engine) Option { return func(c *runConfig) { c.engine = e } }

// WithTrace records the run's communication graph (Definition 3.1) and
// attaches a TraceSummary to the Result. Only the sync engine supports
// tracing; it costs extra memory.
func WithTrace() Option { return func(c *runConfig) { c.trace = true } }

// WithRoundTrace records a per-round telemetry timeline (messages, words,
// payload kinds, active senders, wake-ups, decisions) and attaches it to
// Result.RoundTrace. On the sync engine one entry covers one round; on the
// async simulator one entry covers one unit-time window measured from the
// first wake-up. The probe is purely observational — it consumes no
// randomness, so a traced run's other Result fields are byte-identical to
// the untraced run's. The live engine does not support it.
func WithRoundTrace() Option { return func(c *runConfig) { c.roundTrace = true } }

// WithMessageBudget aborts the run once it has sent the given number of
// messages; a truncated run reports Truncated=true and OK=false. 0 means the
// engine's default runaway cap only. The synchronous engine checks the
// budget at round boundaries, so the final round may overshoot it — and a
// run that reaches quiescence inside that overshooting round completes
// normally (Truncated=false) even though Messages exceeds the budget.
func WithMessageBudget(messages int64) Option {
	return func(c *runConfig) { c.budget = messages }
}

// WithExplicit wraps a synchronous protocol in the explicit-election
// transformation (every node outputs the leader's ID; +1 round, +n-1
// messages). It is an error on asynchronous specs.
func WithExplicit() Option { return func(c *runConfig) { c.explicit = true } }

// WithTopology runs the protocol over an explicit graph topology instead of
// the default clique. The spec string names a generator family and its
// parameters — "ring", "torus", "rreg:d=8", "power:m=4",
// "edges:0-1,1-2,..." — see internal/topo for the grammar; "" and "clique"
// mean the default clique wiring. Seeded generators derive the graph
// deterministically from the run seed. It is an error to name a topology the
// spec does not support (Spec.Topologies) or to combine a non-clique
// topology with the live engine.
func WithTopology(spec string) Option { return func(c *runConfig) { c.topo = spec } }
