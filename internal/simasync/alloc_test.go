package simasync

import (
	"testing"

	"cliquelect/internal/ids"
	"cliquelect/internal/proto"
)

// relay is a message-heavy stress protocol for the event loop: a waking
// node sends fan tokens over random ports, and every token hops on over a
// random port until it has made hops hops. It builds its sends in env.Out,
// the run's one engine-owned send buffer, as every protocol in
// internal/core does, so the only allocations left in a run are the
// engine's own.
type relay struct {
	env  proto.Env
	fan  int
	hops int64
}

func (r *relay) Wake(env proto.Env) []proto.Send {
	r.env = env
	out := env.Out.Take(min(r.fan, env.Ports()))
	for i := range out {
		out[i] = proto.Send{Port: env.RNG.Intn(env.Ports()), Msg: proto.Message{Kind: 1, A: env.ID}}
	}
	return out
}

func (r *relay) Receive(d proto.Delivery) []proto.Send {
	if d.Msg.B >= r.hops {
		return nil
	}
	return r.env.Out.One(r.env.RNG.Intn(r.env.Ports()), proto.Message{Kind: 2, A: d.Msg.A, B: d.Msg.B + 1})
}

func (r *relay) Decision() proto.Decision { return proto.NonLeader }

func relayConfig(n int, delays DelayPolicy) Config {
	return Config{N: n, IDs: ids.Sequential(ids.LinearUniverse(n, 1), n), Delays: delays, Seed: 9}
}

// TestEventLoopAllocBudget is the async engine's counterpart of simsync's
// TestRoundLoopAllocBudget: a warm-pool run must allocate nothing beyond
// its per-run setup. The event queue, the FIFO clamp table and the lazy
// port wiring are pooled scratch, so the ~n·fan·hops events of a run must
// add no allocation. Config.Rounds is nil here, so this also pins the
// disabled round-trace probe at zero allocations.
func TestEventLoopAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget is enforced in the non-race build")
	}
	const n = 256
	for _, tc := range []struct {
		name   string
		delays DelayPolicy
	}{
		{"unit", UnitDelay{}},
		{"uniform", UniformDelay{Lo: 0.05}},
	} {
		cfg := relayConfig(n, tc.delays)
		factory := func(int) Protocol { return &relay{fan: 4, hops: 16} }
		// Warm every pool (event queue, clamp table, port-map tables).
		if _, err := Run(cfg, factory); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := Run(cfg, factory); err != nil {
				t.Fatal(err)
			}
		})
		// Setup costs ~n+10 allocations (n protocol instances plus Result
		// and engine slices; every node sends from the pooled scratch's one
		// send buffer); the ~17k events of a run must add none. 1.5*n
		// leaves headroom for pool misses under GC pressure while still
		// catching a send buffer per node (n more) or any per-event
		// regression.
		if budget := 1.5 * n; allocs > budget {
			t.Fatalf("%s: Run allocated %.0f times per run, budget %.0f", tc.name, allocs, budget)
		}
	}
}

// BenchmarkEventLoop times the event loop alone: n = 1024 relay nodes,
// 4 tokens each, 16 hops per token (~70k messages a run), on warm pools.
func BenchmarkEventLoop(b *testing.B) {
	const n = 1024
	for _, bc := range []struct {
		name   string
		delays DelayPolicy
	}{
		{"unit", UnitDelay{}},
		{"uniform", UniformDelay{Lo: 0.05}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := relayConfig(n, bc.delays)
			factory := func(int) Protocol { return &relay{fan: 4, hops: 16} }
			b.ReportAllocs()
			var msgs int64
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg, factory)
				if err != nil {
					b.Fatal(err)
				}
				msgs = res.Messages
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*msgs), "ns/msg")
		})
	}
}
