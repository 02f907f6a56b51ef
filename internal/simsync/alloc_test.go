package simsync

import (
	"reflect"
	"testing"

	"cliquelect/internal/ids"
	"cliquelect/internal/obs"
	"cliquelect/internal/proto"
	"cliquelect/internal/xrand"
)

// chatty is a multi-round stress protocol for the reuse machinery: every
// node fans out to a window of ports each round for several rounds, so each
// round refills every inbox. It builds its sends in env.Out, the run's one
// engine-owned send buffer, as every protocol in internal/core does.
type chatty struct {
	env    proto.Env
	rounds int
	dec    proto.Decision
	halted bool
}

func (p *chatty) Init(env proto.Env) { p.env = env }

func (p *chatty) Send(round int) []proto.Send {
	if round > p.rounds {
		return nil
	}
	fan := min(8, p.env.Ports())
	out := p.env.Out.Take(fan)
	for i := range out {
		out[i] = proto.Send{Port: (round + i) % p.env.Ports(), Msg: proto.Message{Kind: uint8(round), A: p.env.ID}}
	}
	return out
}

func (p *chatty) Deliver(round int, inbox []proto.Delivery) {
	if round >= p.rounds {
		p.dec = proto.NonLeader
		if p.env.ID == int64(p.env.N) { // sequential IDs: max decides leader
			p.dec = proto.Leader
		}
		p.halted = true
	}
}

func (p *chatty) Decision() proto.Decision { return p.dec }
func (p *chatty) Halted() bool             { return p.halted }

// TestRoundLoopAllocBudget is the engine overhaul's regression tripwire: a
// warm-pool synchronous run must stay within a fixed allocation budget.
// The budget covers the per-run setup (one slab of protocol instances, the
// Result and engine slices), whose count does not grow with n, plus slack
// for pool misses; re-growing inboxes every round (rounds × n extra
// allocations), a per-node allocation or even one per round trips it.
//
// Config.Rounds is nil here, so this also pins the disabled round-trace
// probe's cost at zero allocations: its nil guards must stay branches, never
// interface conversions or closures that escape.
//
// The closure also probes a nil *obs.SpanCollector once per simulated round,
// mirroring what a caller with request tracing disabled pays: Add on a nil
// collector must stay a single branch, never an allocation — so the tracing
// subsystem rides inside the same budget the round loop is held to.
func TestRoundLoopAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget is enforced in the non-race build")
	}
	const n = 256
	assign := ids.Sequential(ids.LinearUniverse(n, 1), n)
	cfg := Config{N: n, IDs: assign, Seed: 9}
	factory := Slab(chatty{rounds: 12})
	// Warm every pool (arena, port-map tables).
	if _, err := Run(cfg, factory); err != nil {
		t.Fatal(err)
	}
	var disabled *obs.SpanCollector // tracing off: every probe is one nil check
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Run(cfg, factory); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 12; r++ {
			disabled.Add(obs.Span{Name: "round"})
		}
	})
	// Setup costs 9 allocations at any n (the factory's one slab, the
	// Result and engine slices; every node sends from the arena's one send
	// buffer); the round loop itself must add none. 16 + n/128 leaves
	// headroom for pool misses under GC pressure while still catching a
	// protocol instance or send buffer per node (n more) or any per-round
	// regression (12 rounds, at least 12 more).
	if budget := 16 + n/128.0; allocs > budget {
		t.Fatalf("Run allocated %.0f times per run, budget %.0f", allocs, budget)
	}
}

// TestStatsIdenticalUnderReuse pins the per-round statistics against the
// pooling machinery: the same configuration run on cold and warm pools —
// with a differently-shaped run in between to dirty the buffers — must
// produce deeply equal Results, including PerRound, which is assembled
// from reused scratch.
func TestStatsIdenticalUnderReuse(t *testing.T) {
	const n = 64
	assign := ids.Random(ids.LogUniverse(n), n, xrand.New(5))
	cfg := Config{N: n, IDs: assign, Seed: 77}
	factory := Slab(chatty{rounds: 6})
	cold, err := Run(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the pools with a different shape.
	small := ids.Sequential(ids.LinearUniverse(8, 1), 8)
	if _, err := Run(Config{N: 8, IDs: small, Seed: 1}, Slab(chatty{rounds: 2})); err != nil {
		t.Fatal(err)
	}
	warm, err := Run(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("results diverge under pool reuse:\ncold: %+v\nwarm: %+v", cold, warm)
	}
	if len(cold.PerRound) == 0 {
		t.Fatalf("stress run produced empty stats: %+v", cold)
	}
}
