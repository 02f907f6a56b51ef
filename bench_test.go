// Benchmarks: one per Table-1 row of the paper (E1..E13, matching the
// experiments of internal/experiments). Each benchmark executes complete
// elections (or complete adversary games) per iteration through the public
// elect API and reports the paper's complexity measures as custom metrics:
// msgs/op, rounds/op for synchronous rows, timeunits/op for asynchronous
// rows.
//
//	go test -bench=. -benchmem
package cliquelect_test

import (
	"fmt"
	"testing"

	"cliquelect/elect"
	"cliquelect/internal/lowerbound"
	"cliquelect/internal/resultcache"
)

// benchElect runs complete elections per iteration through elect.Run and
// reports the unified complexity metrics.
func benchElect(b *testing.B, algo string, n int, opts ...elect.Option) {
	b.Helper()
	spec, err := elect.Lookup(algo)
	if err != nil {
		b.Fatal(err)
	}
	var msgs, rounds, units float64
	var engine elect.Engine
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		all := append([]elect.Option{elect.WithN(n), elect.WithSeed(uint64(n) + uint64(i))}, opts...)
		res, err := elect.Run(spec, all...)
		if err != nil {
			b.Fatal(err)
		}
		engine = res.Engine
		msgs += float64(res.Messages)
		rounds += float64(res.Rounds)
		units += res.TimeUnits
	}
	b.ReportMetric(msgs/float64(b.N), "msgs/op")
	switch engine {
	case elect.EngineSync:
		b.ReportMetric(rounds/float64(b.N), "rounds/op")
	case elect.EngineAsync:
		b.ReportMetric(units/float64(b.N), "timeunits/op")
		// EngineLive measures no time; report only msgs/op.
	}
}

// BenchmarkE01ComponentGame plays the Theorem 3.8 / Lemma 3.9 adversary
// against the Theorem 3.10 algorithm.
func BenchmarkE01ComponentGame(b *testing.B) {
	var stalled float64
	for i := 0; i < b.N; i++ {
		res, err := lowerbound.ComponentGame(256, 8, lowerbound.TradeoffVictim(4), uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		stalled += float64(res.StalledRounds())
	}
	b.ReportMetric(stalled/float64(b.N), "stalledrounds/op")
}

// BenchmarkE02SingleSend runs the Lemma 3.12 transform of the Theorem 3.10
// algorithm (the Theorem 3.11 census substrate).
func BenchmarkE02SingleSend(b *testing.B) {
	var msgs float64
	for i := 0; i < b.N; i++ {
		m, err := lowerbound.RunSingleSend(64, lowerbound.TradeoffVictim(3), uint64(i)+2)
		if err != nil {
			b.Fatal(err)
		}
		msgs += float64(m)
	}
	b.ReportMetric(msgs/float64(b.N), "msgs/op")
}

// BenchmarkE03Tradeoff benchmarks Theorem 3.10 per round budget l.
func BenchmarkE03Tradeoff(b *testing.B) {
	for _, l := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("l=%d/n=1024", l), func(b *testing.B) {
			benchElect(b, "tradeoff", 1024, elect.WithParams(elect.Params{K: (l + 3) / 2}))
		})
	}
}

// BenchmarkE04SmallID benchmarks Algorithm 1 (Theorem 3.15).
func BenchmarkE04SmallID(b *testing.B) {
	const n = 1024
	for _, d := range []int{2, 32} {
		b.Run(fmt.Sprintf("d=%d/n=%d", d, n), func(b *testing.B) {
			benchElect(b, "smallid", n, elect.WithParams(elect.Params{D: d, G: 1}))
		})
	}
}

// BenchmarkE05LasVegasChecker runs the Theorem 3.16 audit.
func BenchmarkE05LasVegasChecker(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := lowerbound.CheckLasVegas(64, 20, lowerbound.NewCheatingLasVegas(), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE06LasVegas benchmarks the Theorem 3.16 algorithm.
func BenchmarkE06LasVegas(b *testing.B) {
	benchElect(b, "lasvegas", 1024)
}

// BenchmarkE07Sublinear benchmarks the [16] Monte Carlo baseline.
func BenchmarkE07Sublinear(b *testing.B) {
	benchElect(b, "sublinear", 4096)
}

// BenchmarkE08AdvWake benchmarks Theorem 4.1 under a single adversarial
// wake-up.
func BenchmarkE08AdvWake(b *testing.B) {
	benchElect(b, "advwake", 1024,
		elect.WithParams(elect.Params{Eps: 1.0 / 16}),
		elect.WithWakeSet([]int{0}))
}

// BenchmarkE09WakeupGame runs the Theorem 4.2 sweep at one reliable point.
func BenchmarkE09WakeupGame(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := lowerbound.WakeupGame(256, 5, []float64{2}, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10AsyncTradeoff benchmarks Algorithm 2 (Theorem 5.1) per k.
func BenchmarkE10AsyncTradeoff(b *testing.B) {
	for _, k := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("k=%d/n=1024", k), func(b *testing.B) {
			benchElect(b, "asynctradeoff", 1024,
				elect.WithParams(elect.Params{K: k}),
				elect.WithWakeSet([]int{0}))
		})
	}
}

// BenchmarkE11AsyncLinear benchmarks the substituted near-linear baseline.
func BenchmarkE11AsyncLinear(b *testing.B) {
	benchElect(b, "asynclinear", 1024, elect.WithWakeSet([]int{0}))
}

// BenchmarkE12AsyncAfekGafni benchmarks the Theorem 5.14 deterministic
// algorithm under simultaneous wake-up.
func BenchmarkE12AsyncAfekGafni(b *testing.B) {
	benchElect(b, "asyncafekgafni", 1024)
}

// BenchmarkE13AfekGafni benchmarks the Afek-Gafni [1] baseline per k.
func BenchmarkE13AfekGafni(b *testing.B) {
	for _, k := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("k=%d/n=1024", k), func(b *testing.B) {
			benchElect(b, "afekgafni", 1024, elect.WithParams(elect.Params{K: k}))
		})
	}
}

// BenchmarkEngineSyncBroadcast measures raw engine throughput with an
// n(n-1)-message broadcast (the engines' worst case per round).
func BenchmarkEngineSyncBroadcast(b *testing.B) {
	benchElect(b, "afekgafni", 512, elect.WithParams(elect.Params{K: 1}))
}

// BenchmarkEngineLive measures the goroutine-per-node runtime against the
// event-queue simulator on the same protocol and size.
func BenchmarkEngineLive(b *testing.B) {
	for _, eng := range []elect.Engine{elect.EngineAsync, elect.EngineLive} {
		b.Run(eng.String(), func(b *testing.B) {
			benchElect(b, "asynctradeoff", 256,
				elect.WithParams(elect.Params{K: 3}),
				elect.WithEngine(eng))
		})
	}
}

// BenchmarkRunMany measures batch fan-out throughput: 16 seeds of a
// 256-node election per iteration, on one worker vs. the full pool.
func BenchmarkRunMany(b *testing.B) {
	spec, err := elect.Lookup("tradeoff")
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 0} {
		name := "workers=max"
		if workers == 1 {
			name = "workers=1"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := elect.RunMany(spec, elect.Batch{
					Ns:      []int{256},
					Seeds:   elect.Seeds(uint64(i)*16, 16),
					Workers: workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineLargeN is the acceptance workload for the engine hot-path
// overhaul: an 8-cell RunMany sweep (one size, eight seeds) of the paper's
// headline tradeoff algorithm at n=4096 through the full batch path. The
// wall-clock time of this benchmark and the allocation counts of
// BenchmarkRoundLoopAllocs are the before/after numbers PERFORMANCE.md
// records.
func BenchmarkEngineLargeN(b *testing.B) {
	spec, err := elect.Lookup("tradeoff")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := elect.RunMany(spec, elect.Batch{
			Ns:    []int{4096},
			Seeds: elect.Seeds(1, 8),
		})
		if err != nil {
			b.Fatal(err)
		}
		if got := out.Aggregates[0].SuccessRate; got != 1 {
			b.Fatalf("success rate = %v", got)
		}
	}
}

// BenchmarkRoundLoopAllocs tracks the allocation footprint of the simsync
// round loop on a mid-size tradeoff election (n=1024). Compare allocs/op
// across commits; TestRoundLoopAllocBudget in the simsync package enforces
// the hard budget in CI.
func BenchmarkRoundLoopAllocs(b *testing.B) {
	spec, err := elect.Lookup("tradeoff")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := elect.Run(spec, elect.WithN(1024), elect.WithSeed(uint64(i)))
		if err != nil || !res.OK {
			b.Fatalf("err=%v ok=%v", err, res.OK)
		}
	}
}

// BenchmarkCachedRun measures the serving layer's result cache against
// recomputation on the acceptance workload: a 1024-node run of the paper's
// headline tradeoff algorithm, same spec/params/seed every iteration. The
// cached path (content-hash fingerprint + stored-bytes decode) must be at
// least an order of magnitude faster than re-executing the election.
func BenchmarkCachedRun(b *testing.B) {
	spec, err := elect.Lookup("tradeoff")
	if err != nil {
		b.Fatal(err)
	}
	opts := []elect.Option{
		elect.WithN(1024), elect.WithSeed(7),
		elect.WithParams(elect.Params{K: 4}),
	}
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := elect.Run(spec, opts...)
			if err != nil || !res.OK {
				b.Fatalf("err=%v ok=%v", err, res.OK)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		cache := resultcache.New()
		if _, hit, err := elect.RunCached(cache, spec, opts...); err != nil || hit {
			b.Fatalf("warmup: err=%v hit=%v", err, hit)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, hit, err := elect.RunCached(cache, spec, opts...); err != nil || !hit {
				b.Fatalf("err=%v hit=%v", err, hit)
			}
		}
	})
}

// BenchmarkAblationArrivalWiring quantifies the arrival-wiring ablation
// (ARCHITECTURE.md, Substitutions): the component game with and without
// adversarial arrival-port wiring (Lemma 3.3's both-endpoints control).
// Compare stalledrounds/op.
func BenchmarkAblationArrivalWiring(b *testing.B) {
	run := func(b *testing.B, opts ...lowerbound.GameOption) {
		var stalled float64
		for i := 0; i < b.N; i++ {
			res, err := lowerbound.ComponentGame(256, 3, lowerbound.TradeoffVictim(4), uint64(i), opts...)
			if err != nil {
				b.Fatal(err)
			}
			stalled += float64(res.StalledRounds())
		}
		b.ReportMetric(stalled/float64(b.N), "stalledrounds/op")
	}
	b.Run("lowport", func(b *testing.B) { run(b) })
	b.Run("uniform", func(b *testing.B) { run(b, lowerbound.WithUniformArrivals()) })
}

// BenchmarkFaultInjection measures the fault subsystem's hook overhead on
// the Theorem 3.10 algorithm: a plain run, a zero-cost active injector
// (rates so low nothing fires), and a lossy run. Compare msgs/op and ns/op
// against the "plain" baseline.
func BenchmarkFaultInjection(b *testing.B) {
	const n = 1024
	b.Run("plain", func(b *testing.B) {
		benchElect(b, "tradeoff", n)
	})
	b.Run("faults=armed", func(b *testing.B) {
		benchElect(b, "tradeoff", n,
			elect.WithFaults(elect.FaultPlan{DropRate: 1e-9}))
	})
	b.Run("faults=lossy", func(b *testing.B) {
		benchElect(b, "tradeoff", n,
			elect.WithFaults(elect.FaultPlan{CrashRate: 0.1, DropRate: 0.01}))
	})
}

// BenchmarkExplicitOverhead measures the +1 round / +n messages cost of the
// explicit-election wrapper (Section 2 / Section 3.5 transformation).
func BenchmarkExplicitOverhead(b *testing.B) {
	const n = 1024
	b.Run("implicit", func(b *testing.B) {
		benchElect(b, "tradeoff", n)
	})
	b.Run("explicit", func(b *testing.B) {
		benchElect(b, "tradeoff", n, elect.WithExplicit())
	})
}
