// Package elect is the public entry point of cliquelect: one API over every
// leader-election protocol of "Improved Tradeoffs for Leader Election"
// (Kutten, Robinson, Tan, Zhu; PODC 2023) and over all three execution
// engines in this repository.
//
// The package exposes a registry of protocol Specs with capability metadata
// (timing model, determinism, ID-space requirements, parameter validation),
// a single Run entry point configured with functional options, and a
// worker-pool batch runner RunMany for multi-seed / multi-size sweeps.
// Callers never touch the engine packages directly:
//
//	spec, _ := elect.Lookup("tradeoff")
//	res, err := elect.Run(spec, elect.WithN(1024), elect.WithParams(elect.Params{K: 4}))
//
//	batch, err := elect.RunMany(spec, elect.Batch{
//		Ns:    []int{256, 512, 1024},
//		Seeds: elect.Seeds(1, 16),
//	})
//
// Engines: EngineSync is the deterministic lock-step simulator (synchronous
// protocols), EngineAsync is the deterministic event-queue simulator
// (asynchronous protocols), and EngineLive runs asynchronous protocols on a
// goroutine-per-node concurrent runtime with real (nondeterministic)
// interleavings. Given the same Spec, options and seed, EngineSync and
// EngineAsync reproduce byte-identical results.
package elect

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"cliquelect/internal/core"
	"cliquelect/internal/simasync"
	"cliquelect/internal/simsync"
)

// Model distinguishes the two network timing models of the paper.
type Model int

// Models.
const (
	Sync Model = iota + 1
	Async
)

func (m Model) String() string {
	if m == Async {
		return "async"
	}
	return "sync"
}

// Engine selects the execution substrate for a run.
type Engine int

// Engines.
const (
	// EngineAuto picks the natural engine for the spec's model: EngineSync
	// for synchronous protocols, EngineAsync for asynchronous ones.
	EngineAuto Engine = iota
	// EngineSync is the deterministic lock-step round simulator.
	EngineSync
	// EngineAsync is the deterministic event-queue simulator with
	// adversarial message delays.
	EngineAsync
	// EngineLive runs asynchronous protocols on one goroutine per node with
	// genuine concurrent interleavings. It is intentionally nondeterministic
	// and does not measure time.
	EngineLive
)

func (e Engine) String() string {
	switch e {
	case EngineSync:
		return "sync"
	case EngineAsync:
		return "async"
	case EngineLive:
		return "live"
	}
	return "auto"
}

// Params carries every tunable any registered protocol accepts; fields not
// used by a protocol are ignored by it.
type Params struct {
	K   int     `json:"k"`   // tradeoff parameter (tradeoff, afekgafni, spreadelect, asynctradeoff)
	D   int     `json:"d"`   // smallid window parameter
	G   int     `json:"g"`   // smallid universe slack g(n)
	Eps float64 `json:"eps"` // advwake failure budget
}

// DefaultParams returns sensible defaults: K=3, D=2, G=1, Eps=1/16.
func DefaultParams() Params {
	return Params{K: 3, D: 2, G: 1, Eps: 1.0 / 16}
}

// Spec describes one registered protocol: its identity, the paper result it
// implements, and its capability metadata. Specs are obtained from Registry
// or Lookup; the zero Spec is invalid.
type Spec struct {
	Name        string
	Model       Model
	Paper       string // which paper result it implements
	Description string
	// SmallIDSpace marks protocols that require IDs from the linear-size
	// universe {1..n·g} (Theorem 3.15); all others use the Θ(n log n)
	// universe of Theorem 3.8.
	SmallIDSpace bool
	// Deterministic marks protocols with no coin flips: same IDs and port
	// mapping always elect the same leader.
	Deterministic bool
	// FaultTolerant marks protocols qualified for fault injection
	// (WithFaults): under crash/drop/duplicate faults the implementation
	// keeps terminating within the engine caps and fails gracefully — the
	// election-success rate degrades with the fault rate instead of the run
	// wedging or panicking. Informational: Run does not enforce it, but
	// cmd/sweep's "-algo all" sweeps exactly these specs.
	FaultTolerant bool
	// Topologies lists the non-clique topology families (internal/topo
	// generator names: "ring", "torus", "rreg", "power", "edges") the
	// protocol is correct on. Every spec runs on the clique; nil means
	// clique-only — the paper's protocols assume the complete graph and
	// Run rejects WithTopology for them.
	Topologies []string

	buildSync  func(p Params) (simsync.Factory, error)
	buildAsync func(n int, p Params) (simasync.Factory, error)
	bound      func(n int, p Params, edges int64, diameter int) (messages, rounds float64)
}

// Bound returns the paper's upper bound on messages and on rounds (time
// units, on an async spec) for a fault-free run at n nodes with valid
// Params p, under the wake model the spec's theorem assumes. edges and
// diameter are the Result's GraphEdges and Diameter: both are zero on the
// clique. The bounds carry the explicit constants this repository checks
// runs against; they do not cover WithFaults, WithMessageBudget or an
// adaptive adversary. A Spec not obtained from the registry has no bound
// and reports +Inf for both.
func (s Spec) Bound(n int, p Params, edges int64, diameter int) (messages, rounds float64) {
	if s.bound == nil {
		return math.Inf(1), math.Inf(1)
	}
	return s.bound(n, p, edges, diameter)
}

// Engines returns the engines this spec can run on.
func (s Spec) Engines() []Engine {
	if s.Model == Sync {
		return []Engine{EngineSync}
	}
	return []Engine{EngineAsync, EngineLive}
}

// SupportsTopology reports whether the spec can run over the given topology
// family; "" (the clique) is supported by every spec.
func (s Spec) SupportsTopology(family string) bool {
	if family == "" {
		return true
	}
	for _, f := range s.Topologies {
		if f == family {
			return true
		}
	}
	return false
}

// Supports reports whether the spec can run on the given engine.
// EngineAuto is supported by every valid spec.
func (s Spec) Supports(e Engine) bool {
	if e == EngineAuto {
		return s.Model != 0
	}
	for _, have := range s.Engines() {
		if have == e {
			return true
		}
	}
	return false
}

// Validate checks the parameters against the spec without running anything.
func (s Spec) Validate(p Params) error {
	switch {
	case s.Model == Sync && s.buildSync != nil:
		_, err := s.buildSync(p)
		return err
	case s.Model == Async && s.buildAsync != nil:
		_, err := s.buildAsync(2, p)
		return err
	}
	return fmt.Errorf("elect: spec %q was not obtained from the registry (use Lookup or Registry)", s.Name)
}

// registry is ordered for stable listings.
var registry = []Spec{
	{
		Name: "tradeoff", FaultTolerant: true, Model: Sync, Paper: "Theorem 3.10 (arXiv 2301.08235)", Deterministic: true,
		Description: "improved deterministic tradeoff: 2k-3 rounds, O(k·n^{1+1/(k-1)}) msgs",
		buildSync: func(p Params) (simsync.Factory, error) {
			if err := core.ValidateTradeoffK(p.K); err != nil {
				return nil, err
			}
			return core.NewTradeoff(p.K), nil
		},
		bound: func(n int, p Params, _ int64, _ int) (float64, float64) {
			return 8 * float64(p.K) * math.Pow(float64(n), 1+1/float64(p.K-1)), float64(2*p.K - 3)
		},
	},
	{
		Name: "afekgafni", FaultTolerant: true, Model: Sync, Paper: "Afek-Gafni [1] baseline (arXiv 2301.08235 Table 1)", Deterministic: true,
		Description: "classic deterministic tradeoff: 2k rounds, O(k·n^{1+1/k}) msgs",
		buildSync: func(p Params) (simsync.Factory, error) {
			if err := core.ValidateAfekGafniK(p.K); err != nil {
				return nil, err
			}
			return core.NewAfekGafni(p.K), nil
		},
		bound: func(n int, p Params, _ int64, _ int) (float64, float64) {
			return 8 * float64(p.K) * math.Pow(float64(n), 1+1/float64(p.K)), float64(2 * p.K)
		},
	},
	{
		Name: "smallid", FaultTolerant: true, Model: Sync, Paper: "Theorem 3.15 / Algorithm 1 (arXiv 2301.08235)", Deterministic: true,
		SmallIDSpace: true,
		Description:  "small-ID-universe scan: ceil(n/d) rounds, <= n·d·g msgs",
		buildSync: func(p Params) (simsync.Factory, error) {
			if err := core.ValidateSmallID(p.D, p.G); err != nil {
				return nil, err
			}
			return core.NewSmallID(p.D, p.G), nil
		},
		bound: func(n int, p Params, _ int64, _ int) (float64, float64) {
			return float64(n) * float64(p.D) * float64(p.G), float64(core.CeilDiv(n, p.D))
		},
	},
	{
		// Not FaultTolerant: its nodes busy-wait for referee verdicts that a
		// single dropped or duplicated message can void, so faulted runs wedge
		// until the engine's round cap instead of failing gracefully.
		Name: "lasvegas", Model: Sync, Paper: "Theorem 3.16 (arXiv 2301.08235)",
		Description: "Las Vegas: 3 rounds and O(n) msgs w.h.p., never wrong",
		buildSync: func(Params) (simsync.Factory, error) {
			return core.NewLasVegas(), nil
		},
		bound: func(n int, _ Params, _ int64, _ int) (float64, float64) {
			return 6 * float64(n), 3
		},
	},
	{
		Name: "sublinear", FaultTolerant: true, Model: Sync, Paper: "Kutten et al. [16] baseline (arXiv 1210.4822)",
		Description: "Monte Carlo: 2 rounds, O(sqrt(n)·log^{3/2} n) msgs, fails with o(1) prob.",
		buildSync: func(Params) (simsync.Factory, error) {
			return core.NewSublinear(), nil
		},
		bound: func(n int, _ Params, _ int64, _ int) (float64, float64) {
			return sublinearMessages(n), 2
		},
	},
	{
		Name: "advwake", FaultTolerant: true, Model: Sync, Paper: "Theorem 4.1 (arXiv 2301.08235)",
		Description: "adversarial wake-up: 2 rounds, O(n^{3/2}·log(1/eps)) msgs",
		buildSync: func(p Params) (simsync.Factory, error) {
			if err := core.ValidateEps(p.Eps); err != nil {
				return nil, err
			}
			return core.NewAdvWake2Round(p.Eps), nil
		},
		bound: func(n int, p Params, _ int64, _ int) (float64, float64) {
			// log2(1/eps) floored at 1: every root's sqrt(n) fan-out is spent
			// whatever eps is.
			return 20 * math.Pow(float64(n), 1.5) * math.Max(1, math.Log2(1/p.Eps)), 2
		},
	},
	{
		Name: "spreadelect", FaultTolerant: true, Model: Sync, Paper: "substituted [14]-style baseline (arXiv 2301.08235 Table 1)",
		Description: "adversarial wake-up: k+5 rounds, O(n^{1+1/k}+n) msgs",
		buildSync: func(p Params) (simsync.Factory, error) {
			if err := core.ValidateSpreadK(p.K); err != nil {
				return nil, err
			}
			return core.NewSpreadElect(p.K), nil
		},
		bound: func(n int, p Params, _ int64, _ int) (float64, float64) {
			spread, election := math.Pow(float64(n), 1+1/float64(p.K)), float64(n)*math.Log2(float64(n))
			return 8 * math.Max(spread, election), float64(p.K + 5)
		},
	},
	{
		// Not FaultTolerant: a dropped Echo leaves its wave's convergecast
		// pending forever, so faulted runs wedge until the round cap.
		Name: "kuttenmoses", Model: Sync, Paper: "Kutten-Moses Jr.-Pandurangan-Peleg (arXiv 2008.02782) profile",
		Deterministic: true,
		Topologies:    []string{"ring", "torus", "rreg", "power", "edges"},
		Description:   "general-graph extinction election: O(D) rounds, O(m log n) expected msgs",
		buildSync: func(Params) (simsync.Factory, error) {
			return core.NewKuttenMoses(), nil
		},
		bound: func(n int, _ Params, edges int64, diameter int) (float64, float64) {
			m, d := float64(edges), diameter
			if edges == 0 { // the clique
				m, d = float64(n)*float64(n-1)/2, 1
			}
			return 8 * m * math.Log(float64(n)), float64(4*d + 8)
		},
	},
	{
		Name: "kpprt", FaultTolerant: true, Model: Sync, Paper: "KPPRT (arXiv 1210.4822) generalized",
		Topologies:  []string{"ring", "torus", "rreg", "power", "edges"},
		Description: "sampled-candidacy election: 2 rounds on the clique, 2D+2 rounds and O(m log log n) msgs on graphs, Monte Carlo",
		buildSync: func(Params) (simsync.Factory, error) {
			return core.NewKPPRT(), nil
		},
		bound: func(n int, _ Params, edges int64, diameter int) (float64, float64) {
			if edges == 0 {
				return sublinearMessages(n), 2
			}
			return 4 * float64(edges) * (2 + math.Log(math.Log(float64(n)))), float64(2*diameter + 2)
		},
	},
	{
		Name: "asynctradeoff", FaultTolerant: true, Model: Async, Paper: "Theorem 5.1 / Algorithm 2 (arXiv 2301.08235)",
		Description: "async tradeoff: k+8 time units, O(n^{1+1/k}) msgs",
		buildAsync: func(_ int, p Params) (simasync.Factory, error) {
			if err := core.ValidateAsyncK(p.K); err != nil {
				return nil, err
			}
			return core.NewAsyncTradeoff(p.K), nil
		},
		bound: func(n int, p Params, _ int64, _ int) (float64, float64) {
			return 24 * math.Pow(float64(n), 1+1/float64(p.K)), float64(p.K + 8)
		},
	},
	{
		Name: "asyncafekgafni", FaultTolerant: true, Model: Async, Paper: "Theorem 5.14 / Section 5.4 (arXiv 2301.08235)", Deterministic: true,
		Description: "asynchronized Afek-Gafni: O(log n) time, O(n log n) msgs, simultaneous wake-up",
		buildAsync: func(int, Params) (simasync.Factory, error) {
			return core.NewAsyncAfekGafni(), nil
		},
		bound: func(n int, _ Params, _ int64, _ int) (float64, float64) {
			return 16 * float64(n) * math.Log2(float64(n)), 8*math.Log2(float64(n)) + 8
		},
	},
	{
		Name: "asynclinear", FaultTolerant: true, Model: Async, Paper: "substituted [14]-style async baseline (arXiv 2301.08235 Table 1)",
		Description: "near-linear msgs at k=Theta(log n/log log n): O(n log n) msgs, O(log n) time",
		buildAsync: func(n int, _ Params) (simasync.Factory, error) {
			return core.NewAsyncLinear(n), nil
		},
		bound: func(n int, _ Params, _ int64, _ int) (float64, float64) {
			return 24 * float64(n) * math.Log2(float64(n)), 4 * math.Log2(float64(n))
		},
	},
}

// sublinearMessages is the message bound of the 2-round referee election of
// arXiv 1210.4822 on the clique, which both sublinear and kpprt run there.
func sublinearMessages(n int) float64 {
	return 40 * math.Sqrt(float64(n)) * math.Pow(math.Log(float64(n)), 1.5)
}

// Registry returns the registered protocol specs in registry order.
func Registry() []Spec {
	out := make([]Spec, len(registry))
	copy(out, registry)
	return out
}

// Names returns all registered protocol names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for _, s := range registry {
		out = append(out, s.Name)
	}
	sort.Strings(out)
	return out
}

// Lookup finds a protocol by name.
func Lookup(name string) (Spec, error) {
	for _, s := range registry {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("elect: unknown algorithm %q (have: %s)", name, strings.Join(Names(), ", "))
}

// ParseEngine resolves an engine name (as used by CLI flags): "auto", "sync",
// "async" or "live"; the empty string means EngineAuto. It is the inverse of
// Engine.String.
func ParseEngine(name string) (Engine, error) {
	switch name {
	case "", "auto":
		return EngineAuto, nil
	case "sync":
		return EngineSync, nil
	case "async":
		return EngineAsync, nil
	case "live":
		return EngineLive, nil
	}
	return EngineAuto, fmt.Errorf("elect: unknown engine %q (auto, sync, async, live)", name)
}

// NearLinearK returns the k = Θ(log n / log log n) parameter at which the
// asynchronous tradeoff of Theorem 5.1 reaches its near-linear-message
// extreme — the parameter the "asynclinear" spec derives internally.
func NearLinearK(n int) int { return core.AsyncLinearK(n) }
