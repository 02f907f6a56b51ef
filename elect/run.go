package elect

import (
	"fmt"
	"strings"

	"cliquelect/internal/core"
	"cliquelect/internal/faults"
	"cliquelect/internal/ids"
	"cliquelect/internal/livenet"
	"cliquelect/internal/obs"
	"cliquelect/internal/proto"
	"cliquelect/internal/simasync"
	"cliquelect/internal/simsync"
	"cliquelect/internal/topo"
	"cliquelect/internal/trace"
	"cliquelect/internal/xrand"
)

// Decision is a node's irrevocable leader-election output. It encodes as
// its name ("undecided", "leader", "non-leader") on the wire.
type Decision = proto.Decision

// Decisions.
const (
	Undecided = proto.Undecided
	Leader    = proto.Leader
	NonLeader = proto.NonLeader
)

// TraceSummary condenses the communication graph (Definition 3.1) of a
// traced run: the quantities the paper's lower-bound machinery reasons
// about.
type TraceSummary struct {
	// Edges is the number of distinct directed (sender, receiver) pairs.
	Edges int `json:"edges"`
	// MaxComponent is the size of the largest weakly connected component.
	MaxComponent int `json:"max_component"`
	// Components is the number of weakly connected components.
	Components int `json:"components"`
	// PortOpens is the total number of first-use port events (Lemma 3.13's
	// census quantity).
	PortOpens int `json:"port_opens"`
}

// RoundStat is one entry of a WithRoundTrace timeline: one synchronous
// round, or one unit-time window of the asynchronous simulator (window w
// covers event times [w, w+1) from the first wake-up). Quantities follow
// the Result conventions: Messages/Words count protocol sends (drops
// included, duplicates not), Deliveries counts delivered copies
// (duplicates included, drops not).
type RoundStat = obs.RoundStat

// Result is the unified outcome of one Run, regardless of engine. Fields
// that a given engine does not measure stay zero: Rounds and PerRound are
// sync-only, TimeUnits is async-simulator-only, and the live engine reports
// neither time nor Words.
//
// The json tags define the stable v1 wire form used by EncodeResult, the
// result cache and the electd daemon; enums (Model, Engine, Decision)
// serialize as their string names. Renaming or retyping a tagged field is a
// wire-format break — add new fields instead, and teach the hand codec in
// codec.go to write and read them (TestCodecCoversEveryField fails until
// it does).
type Result struct {
	Algorithm string `json:"algorithm"`
	Model     Model  `json:"model"`
	Engine    Engine `json:"engine"`
	N         int    `json:"n"`
	Seed      uint64 `json:"seed"`
	// IDs is the ID assignment the run used (node i had ID IDs[i]).
	IDs []int64 `json:"ids"`
	// Leader is the elected node index, or -1 if the run did not elect a
	// unique leader.
	Leader   int   `json:"leader"`
	LeaderID int64 `json:"leader_id"`
	// Messages is the paper's message complexity: total messages sent.
	Messages int64 `json:"messages"`
	// Words is the CONGEST payload volume in O(log n)-bit words (not
	// measured by the live engine).
	Words int64 `json:"words"`
	// Rounds is the synchronous time complexity (sync engine only).
	Rounds int `json:"rounds"`
	// PerRound[r] is the number of messages sent in round r (sync engine
	// only; index 0 unused).
	PerRound []int64 `json:"per_round,omitempty"`
	// TimeUnits is the asynchronous time complexity (async engine only).
	TimeUnits float64 `json:"time_units"`
	// Decisions holds each node's final output.
	Decisions []Decision `json:"decisions"`
	// AllAwake reports whether every node was activated during the run.
	AllAwake bool `json:"all_awake"`
	// Truncated reports that the run hit its message budget (or, on the live
	// engine, the message cap) before quiescence.
	Truncated bool `json:"truncated"`
	// TimedOut reports that the run hit the engine's runaway cap (rounds or
	// events) before quiescence.
	TimedOut bool `json:"timed_out"`
	// Crashed lists (sorted) the nodes that crash-stopped during the run
	// (WithFaults only).
	Crashed []int `json:"crashed,omitempty"`
	// Dropped counts messages the fault injector lost; Duplicated counts the
	// extra copies it delivered. Dropped messages are included in Messages
	// (they were sent); duplicates are not (the protocol sent one).
	Dropped    int64 `json:"dropped"`
	Duplicated int64 `json:"duplicated"`
	// OK reports a valid implicit election: exactly one leader, every awake
	// node decided, no truncation. Under WithFaults the guarantee is
	// restricted to surviving nodes — crashed nodes' outputs are void and
	// they owe no decision, so a run whose unique leader crashed is not OK.
	OK bool `json:"ok"`
	// Trace is the communication-graph summary when WithTrace was set.
	Trace *TraceSummary `json:"trace,omitempty"`
	// Topo is the canonical topology spec of a WithTopology run; empty for
	// the default clique (all three topology fields are omitted then, so
	// clique wire encodings are unchanged).
	Topo string `json:"topo,omitempty"`
	// Diameter is the topology's diameter estimate (double-sweep BFS).
	Diameter int `json:"diameter,omitempty"`
	// GraphEdges is the topology's undirected edge count m.
	GraphEdges int64 `json:"graph_edges,omitempty"`
	// RoundTrace is the per-round timeline when WithRoundTrace was set
	// (trailing omitempty field: untraced wire encodings are unchanged).
	RoundTrace []RoundStat `json:"round_trace,omitempty"`
}

// String renders a human-readable one-line-per-field summary.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "algorithm : %s (%s model, %s engine)\n", r.Algorithm, r.Model, r.Engine)
	fmt.Fprintf(&b, "nodes     : %d\n", r.N)
	if r.Topo != "" {
		fmt.Fprintf(&b, "topology  : %s (diameter %d, %d edges)\n", r.Topo, r.Diameter, r.GraphEdges)
	}
	if r.Leader >= 0 {
		fmt.Fprintf(&b, "leader    : node %d (ID %d)\n", r.Leader, r.LeaderID)
	} else {
		fmt.Fprintf(&b, "leader    : NONE (failed run)\n")
	}
	fmt.Fprintf(&b, "messages  : %d\n", r.Messages)
	switch r.Engine {
	case EngineSync:
		fmt.Fprintf(&b, "rounds    : %d\n", r.Rounds)
	case EngineAsync:
		fmt.Fprintf(&b, "time      : %.2f units\n", r.TimeUnits)
	}
	if len(r.Crashed) > 0 || r.Dropped > 0 || r.Duplicated > 0 {
		fmt.Fprintf(&b, "faults    : %d crashed %v, %d dropped, %d duplicated\n",
			len(r.Crashed), r.Crashed, r.Dropped, r.Duplicated)
	}
	fmt.Fprintf(&b, "all awake : %v\n", r.AllAwake)
	fmt.Fprintf(&b, "valid     : %v\n", r.OK)
	return b.String()
}

// Run executes one protocol under the given options and returns the unified
// result. Configuration errors (bad parameters, unsupported engine/option
// combinations) return a non-nil error; a run that merely fails to elect a
// unique leader returns OK=false.
func Run(spec Spec, opts ...Option) (Result, error) {
	cfg, err := resolve(spec, opts)
	if err != nil {
		return rejected(spec, cfg), err
	}
	return run(spec, cfg)
}

// rejected is the Result returned with a configuration error from resolve:
// the run's identity and no outcome.
func rejected(spec Spec, cfg runConfig) Result {
	return Result{Algorithm: spec.Name, Model: spec.Model, Engine: cfg.engine, N: cfg.n, Seed: cfg.seed, Leader: -1}
}

// run executes a configuration resolve accepted. It is the one place an
// engine is wired: it builds the ID assignment, the protocol factory, the
// wake set, the fault injector, the topology and the round trace — in this
// order, which fixes every run's draws from the seed — and hands them to
// the engine cfg.engine names.
func run(spec Spec, cfg runConfig) (Result, error) {
	res := Result{
		Algorithm: spec.Name, Model: spec.Model, Engine: cfg.engine,
		N: cfg.n, Seed: cfg.seed, Leader: -1, Topo: cfg.topo,
	}
	rng := xrand.New(cfg.seed)
	assign, err := makeIDs(spec, cfg, rng)
	if err != nil {
		return res, err
	}
	res.IDs = append([]int64(nil), assign...)

	var (
		syncFactory  simsync.Factory
		asyncFactory simasync.Factory
		delays       simasync.DelayPolicy
	)
	if cfg.engine == EngineSync {
		syncFactory, err = spec.buildSync(cfg.params)
		if err == nil && cfg.explicit {
			syncFactory = core.NewExplicit(syncFactory)
		}
	} else {
		asyncFactory, err = spec.buildAsync(cfg.n, cfg.params)
	}
	if err == nil && cfg.engine == EngineAsync {
		delays, err = delayPolicy(cfg.delays)
	}
	if err != nil {
		return res, err
	}
	wset := wakeNodes(cfg, rng)
	// The live engine takes no injector: resolve rejects a non-zero plan
	// there, and a zero plan is not validated for it. Nor does it take a
	// topology or round trace, which resolve also rejects.
	var inj *faults.Injector
	if cfg.engine != EngineLive {
		if inj, err = cfg.injector(); err != nil {
			return res, err
		}
	}
	graph, err := buildTopo(cfg, rng, &res)
	if err != nil {
		return res, err
	}
	var rt *obs.RoundTrace
	if cfg.roundTrace {
		first := 0 // async windows count from 0, sync rounds from 1
		if cfg.engine == EngineSync {
			first = 1
		}
		rt = obs.NewRoundTrace(cfg.n, first)
	}
	seed := rng.Uint64()

	switch cfg.engine {
	case EngineSync:
		var rec *trace.Recorder
		if cfg.trace {
			rec = trace.NewRecorder(cfg.n)
		}
		out, err := simsync.Run(simsync.Config{
			N: cfg.n, IDs: assign, Seed: seed, Wake: wset, Topo: graph,
			MaxMessages: cfg.budget, Trace: rec, Faults: inj, Rounds: rt,
		}, syncFactory)
		if err != nil {
			return res, err
		}
		res.setOutcome(&out.Outcome, out.AllAwake(), out.Validate())
		res.Rounds = out.Rounds
		res.PerRound = out.PerRound
		if rec != nil {
			res.Trace = &TraceSummary{
				Edges:        rec.TotalEdges(),
				MaxComponent: rec.MaxComponent(),
				Components:   rec.NumComponents(),
				PortOpens:    rec.TotalPortOpens(),
			}
		}
	case EngineAsync:
		out, err := simasync.Run(simasync.Config{
			N: cfg.n, IDs: assign, Seed: seed, Delays: delays, Wake: simasync.SubsetAtZero(wset),
			MaxMessages: cfg.budget, Faults: inj, Rounds: rt,
		}, asyncFactory)
		if err != nil {
			return res, err
		}
		res.setOutcome(&out.Outcome, out.AllAwake(), out.Validate())
		res.TimeUnits = out.TimeUnits
	case EngineLive:
		out, err := livenet.Run(livenet.Config{
			N: cfg.n, IDs: assign, Seed: seed, Wake: wset, MaxMessages: cfg.budget,
		}, asyncFactory)
		if err != nil {
			return res, err
		}
		res.setOutcome(&out.Outcome, out.AllAwake(), out.Validate())
	}
	res.RoundTrace = rt.Stats()
	if res.Leader >= 0 {
		res.LeaderID = assign[res.Leader]
	}
	return res, nil
}

// makeIDs builds (or validates) the ID assignment the spec expects.
func makeIDs(spec Spec, cfg runConfig, rng *xrand.RNG) (ids.Assignment, error) {
	universe := ids.LogUniverse(cfg.n)
	if spec.SmallIDSpace {
		universe = ids.LinearUniverse(cfg.n, cfg.params.G)
	}
	if cfg.ids != nil {
		assign := make(ids.Assignment, len(cfg.ids))
		for i, id := range cfg.ids {
			assign[i] = id
		}
		if len(assign) != cfg.n {
			return nil, fmt.Errorf("elect: %d IDs for %d nodes", len(assign), cfg.n)
		}
		if err := assign.Validate(universe); err != nil {
			return nil, err
		}
		return assign, nil
	}
	return ids.Random(universe, cfg.n, rng), nil
}

// buildTopo constructs the run's explicit topology (nil for the clique) and
// records its shape on the result. Seeded generators draw their graph seed
// from rng — after the wake set, before the engine seed — so clique runs
// consume no extra randomness and stay byte-identical to pre-topology runs.
func buildTopo(cfg runConfig, rng *xrand.RNG, res *Result) (*topo.Graph, error) {
	if cfg.topo == "" {
		return nil, nil
	}
	graph, err := topo.Build(cfg.topo, cfg.n, rng.Uint64())
	if err != nil {
		return nil, err
	}
	res.Diameter = graph.Diameter()
	res.GraphEdges = graph.M()
	return graph, nil
}

// wakeNodes resolves the adversarial wake set, or nil for simultaneous
// wake-up. It consumes rng only when sampling is needed. An explicit set is
// passed on as given: every engine rejects an empty set or an out-of-range
// node before any node starts.
func wakeNodes(cfg runConfig, rng *xrand.RNG) []int {
	if cfg.wakeSet != nil {
		return cfg.wakeSet
	}
	if cfg.wakeCount > 0 {
		return rng.Sample(nil, cfg.n, min(cfg.wakeCount, cfg.n))
	}
	return nil
}

// setOutcome copies the engine-independent part of a run's result: the
// counters, decisions and flags of out, the elected leader, and the wake
// and validity verdicts the engine computed from its own wake record.
func (r *Result) setOutcome(out *proto.Outcome, allAwake bool, valid error) {
	r.Messages, r.Words = out.Messages, out.Words
	r.Decisions = out.Decisions
	r.AllAwake = allAwake
	r.Truncated, r.TimedOut = out.Truncated, out.TimedOut
	r.Crashed = out.Crashed
	r.Dropped, r.Duplicated = out.Dropped, out.Duplicated
	r.Leader = out.UniqueLeader()
	r.OK = valid == nil
}
