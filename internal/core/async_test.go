package core_test

import (
	"testing"

	"cliquelect/elect"
	. "cliquelect/internal/core"
	"cliquelect/internal/ids"
	"cliquelect/internal/simasync"
	"cliquelect/internal/xrand"
)

// asyncPolicies are the adversarial schedulers every asynchronous algorithm
// is exercised under.
func asyncPolicies() map[string]simasync.DelayPolicy {
	return map[string]simasync.DelayPolicy{
		"unit":    simasync.UnitDelay{},
		"uniform": simasync.UniformDelay{Lo: 0.05},
		"skew":    simasync.SkewDelay{Fast: 0.05, Mod: 3},
	}
}

// runAsync runs one configuration on the asynchronous engine, failing the
// test on a configuration error.
func runAsync(t *testing.T, cfg simasync.Config, f simasync.Factory) *simasync.Result {
	t.Helper()
	res, err := simasync.Run(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// --- AsyncTradeoff (Algorithm 2 / Theorem 5.1) ---

func TestAsyncTradeoffElectsUniqueLeader(t *testing.T) {
	const n = 128
	for name, policy := range asyncPolicies() {
		for _, k := range []int{2, 3, 4} {
			fails := 0
			const trials = 25
			for seed := uint64(0); seed < trials; seed++ {
				assign := ids.Random(ids.LogUniverse(n), n, xrand.New(seed+404))
				res := runAsync(t, simasync.Config{
					N: n, IDs: assign, Seed: seed, Delays: policy,
					Wake: simasync.SubsetAtZero([]int{0}),
				}, NewAsyncTradeoff(k))
				if res.Validate() != nil {
					fails++
				}
			}
			if fails > 2 {
				t.Fatalf("%s k=%d: %d/%d failures", name, k, fails, trials)
			}
		}
	}
}

func TestAsyncTradeoffWakesEveryone(t *testing.T) {
	const n = 256
	for _, k := range []int{2, 3} {
		ok := 0
		const trials = 20
		for seed := uint64(0); seed < trials; seed++ {
			assign := ids.Random(ids.LogUniverse(n), n, xrand.New(seed+11))
			res := runAsync(t, simasync.Config{
				N: n, IDs: assign, Seed: seed,
				Wake: simasync.SubsetAtZero([]int{int(seed) % n}),
			}, NewAsyncTradeoff(k))
			if res.AllAwake() {
				ok++
			}
		}
		if ok < trials-1 {
			t.Fatalf("k=%d: only %d/%d runs woke everyone", k, ok, trials)
		}
	}
}

func TestAsyncTradeoffTimeBound(t *testing.T) {
	// Theorem 5.1's time bound holds on every run, not only on average.
	const n = 256
	for _, k := range []int{2, 3, 5} {
		_, bound := lookup(t, "asynctradeoff").Bound(n, elect.Params{K: k}, 0, 0)
		for seed := uint64(0); seed < 10; seed++ {
			assign := ids.Random(ids.LogUniverse(n), n, xrand.New(seed+77))
			res := runAsync(t, simasync.Config{
				N: n, IDs: assign, Seed: seed, Delays: simasync.UnitDelay{},
				Wake: simasync.SubsetAtZero([]int{0}),
			}, NewAsyncTradeoff(k))
			if res.TimeUnits > bound {
				t.Fatalf("k=%d seed=%d: time %.2f > %.0f", k, seed, res.TimeUnits, bound)
			}
		}
	}
}

func TestAsyncTradeoffMessageBound(t *testing.T) {
	// Theorem 5.1's message bound, worst over seeds.
	for _, n := range []int{256, 1024} {
		for _, k := range []int{2, 3} {
			var worst int64
			for seed := uint64(0); seed < 5; seed++ {
				assign := ids.Random(ids.LogUniverse(n), n, xrand.New(seed))
				res := runAsync(t, simasync.Config{
					N: n, IDs: assign, Seed: seed,
					Wake: simasync.SubsetAtZero([]int{0}),
				}, NewAsyncTradeoff(k))
				if res.Messages > worst {
					worst = res.Messages
				}
			}
			if bound, _ := lookup(t, "asynctradeoff").Bound(n, elect.Params{K: k}, 0, 0); float64(worst) > bound {
				t.Fatalf("n=%d k=%d: worst %d messages exceed %.0f", n, k, worst, bound)
			}
		}
	}
}

func TestAsyncTradeoffManyRoots(t *testing.T) {
	// Adversary wakes everyone at once: still a unique leader.
	const n, k = 128, 2
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	fails := 0
	for seed := uint64(0); seed < 20; seed++ {
		assign := ids.Random(ids.LogUniverse(n), n, xrand.New(seed+3))
		res := runAsync(t, simasync.Config{
			N: n, IDs: assign, Seed: seed,
			Wake: simasync.SubsetAtZero(all),
		}, NewAsyncTradeoff(k))
		if res.Validate() != nil {
			fails++
		}
	}
	if fails > 2 {
		t.Fatalf("%d/20 failures", fails)
	}
}

func TestAsyncTradeoffStaggeredWake(t *testing.T) {
	// Roots woken at different instants exercise the winner-revocation path
	// (late high-rank competes arrive at referees that already crowned).
	const n, k = 96, 3
	fails := 0
	for seed := uint64(0); seed < 20; seed++ {
		assign := ids.Random(ids.LogUniverse(n), n, xrand.New(seed+8))
		res := runAsync(t, simasync.Config{
			N: n, IDs: assign, Seed: seed,
			Delays: simasync.SkewDelay{Fast: 0.02, Mod: 2},
			Wake: simasync.WakeSchedule{
				{Node: 0, Time: 0}, {Node: 1, Time: 0.5}, {Node: 2, Time: 0.9},
			},
		}, NewAsyncTradeoff(k))
		if res.Validate() != nil {
			fails++
		}
	}
	if fails > 2 {
		t.Fatalf("%d/20 failures under staggered wake", fails)
	}
}

func TestAsyncTradeoffSoloNode(t *testing.T) {
	res := runAsync(t, simasync.Config{
		N: 1, IDs: ids.Assignment{5}, Wake: simasync.SubsetAtZero([]int{0}),
	}, NewAsyncTradeoff(2))
	if res.UniqueLeader() != 0 {
		t.Fatal("solo node must lead")
	}
}

// TestAsyncTradeoffAllocBudget bounds a warm-pool Algorithm 2 run under
// simultaneous wake-up at the default k = 3, as elect runs it, to 1.75
// allocations per node (1.63 measured at n = 256, 1.35 at n = 2048). Each
// node costs its protocol instance and its share of the engine's per-run
// slices; a candidate adds its referee Sample, and a referee with more
// than four competes queued grows its queue out of the instance's inline
// array. Sends go to the engine's one send buffer, the wake-up ports are
// drawn into that buffer's scratch, and Sample's table is pooled. A
// wake-up Sample with a result of its own costs one more allocation per
// node (2.63 at n = 256, 2.35 at n = 2048), and a referee queue grown
// from nil (1, 2, then 4 slots) about two more; either trips the budget.
func TestAsyncTradeoffAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget is enforced in the non-race build")
	}
	for _, n := range []int{256, 2048} {
		cfg := simasync.Config{
			N: n, IDs: ids.Random(ids.LogUniverse(n), n, xrand.New(7)), Seed: 3,
		}
		runAsync(t, cfg, NewAsyncTradeoff(3)) // warm the engine's pools
		allocs := testing.AllocsPerRun(3, func() { runAsync(t, cfg, NewAsyncTradeoff(3)) })
		if perNode := allocs / float64(n); perNode > 1.75 {
			t.Fatalf("n=%d: a warm run allocated %.2f times per node, budget 1.75", n, perNode)
		}
	}
}

func TestValidateAsyncK(t *testing.T) {
	if err := ValidateAsyncK(1); err == nil {
		t.Fatal("k=1 accepted")
	}
	if err := ValidateAsyncK(2); err != nil {
		t.Fatal(err)
	}
}

// --- AsyncAfekGafni (Theorem 5.14) ---

func TestAsyncAfekGafniDeterministicUniqueLeader(t *testing.T) {
	// Deterministic algorithm: must elect exactly one leader under every
	// scheduler, every port mapping, every ID assignment — no probability.
	for _, n := range []int{1, 2, 3, 4, 7, 16, 33, 64, 128} {
		for name, policy := range asyncPolicies() {
			for seed := uint64(0); seed < 5; seed++ {
				assign := ids.Random(ids.LogUniverse(max(n, 2)), n, xrand.New(seed+uint64(n)))
				res := runAsync(t, simasync.Config{
					N: n, IDs: assign, Seed: seed, Delays: policy,
				}, NewAsyncAfekGafni())
				if err := res.Validate(); err != nil {
					t.Fatalf("n=%d %s seed=%d: %v", n, name, seed, err)
				}
			}
		}
	}
}

func TestAsyncAfekGafniMessageBound(t *testing.T) {
	// Theorem 5.14: O(n log n) messages.
	for _, n := range []int{64, 256, 1024} {
		var worst int64
		for seed := uint64(0); seed < 5; seed++ {
			assign := ids.Random(ids.LogUniverse(n), n, xrand.New(seed))
			res := runAsync(t, simasync.Config{
				N: n, IDs: assign, Seed: seed,
				Delays: simasync.UniformDelay{Lo: 0.1},
			}, NewAsyncAfekGafni())
			if res.Messages > worst {
				worst = res.Messages
			}
		}
		if bound, _ := lookup(t, "asyncafekgafni").Bound(n, elect.Params{}, 0, 0); float64(worst) > bound {
			t.Fatalf("n=%d: worst %d messages exceed %.0f", n, worst, bound)
		}
	}
}

func TestAsyncAfekGafniTimeBound(t *testing.T) {
	// O(log n) time from simultaneous wake-up: a constant per level.
	for _, n := range []int{64, 256, 1024} {
		assign := ids.Random(ids.LogUniverse(n), n, xrand.New(uint64(n)))
		res := runAsync(t, simasync.Config{
			N: n, IDs: assign, Seed: 3, Delays: simasync.UnitDelay{},
		}, NewAsyncAfekGafni())
		if _, bound := lookup(t, "asyncafekgafni").Bound(n, elect.Params{}, 0, 0); res.TimeUnits > bound {
			t.Fatalf("n=%d: time %.1f not O(log n)", n, res.TimeUnits)
		}
	}
}

func TestAsyncAfekGafniAdversarialWakeStillUnique(t *testing.T) {
	// Theorem 5.14 counts time from the last spontaneous wake-up; with
	// adversarial wake-up correctness (unique leader among woken nodes'
	// reachable set) must still hold. All nodes are eventually woken by
	// level batches, so everyone decides.
	const n = 64
	fails := 0
	for seed := uint64(0); seed < 10; seed++ {
		assign := ids.Random(ids.LogUniverse(n), n, xrand.New(seed+500))
		res := runAsync(t, simasync.Config{
			N: n, IDs: assign, Seed: seed,
			Delays: simasync.UniformDelay{Lo: 0.2},
			Wake:   simasync.SubsetAtZero([]int{0, 5}),
		}, NewAsyncAfekGafni())
		if got := len(res.Leaders()); got != 1 {
			fails++
		}
	}
	if fails != 0 {
		t.Fatalf("%d/10 adversarial-wake runs failed uniqueness", fails)
	}
}

func TestAsyncLinearBaseline(t *testing.T) {
	// The substituted [14] baseline: near-linear messages, polylog time.
	const n = 1024
	assign := ids.Random(ids.LogUniverse(n), n, xrand.New(9))
	res := runAsync(t, simasync.Config{
		N: n, IDs: assign, Seed: 10,
		Wake: simasync.SubsetAtZero([]int{0}),
	}, NewAsyncLinear(n))
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	msgBound, timeBound := lookup(t, "asynclinear").Bound(n, elect.Params{}, 0, 0)
	if float64(res.Messages) > msgBound {
		t.Fatalf("messages %d not near-linear", res.Messages)
	}
	if res.TimeUnits > timeBound {
		t.Fatalf("time %.1f not polylog", res.TimeUnits)
	}
}

// TestAsyncTradeoffUnderTargetedScheduler stresses Algorithm 2's winner
// revocation: compete messages crawl (full time unit) while everything else
// flies, so referees crown early low-rank candidates and must later consult
// and revoke them when the slow high-rank competes trickle in.
func TestAsyncTradeoffUnderTargetedScheduler(t *testing.T) {
	const n, k = 128, 3
	fails := 0
	const trials = 20
	for seed := uint64(0); seed < trials; seed++ {
		assign := ids.Random(ids.LogUniverse(n), n, xrand.New(seed+640))
		res := runAsync(t, simasync.Config{
			N: n, IDs: assign, Seed: seed,
			Delays: simasync.KindDelay{Slow: []uint8{KindCompeteAsync, KindConsult}},
			Wake:   simasync.SubsetAtZero([]int{0, 1}),
		}, NewAsyncTradeoff(k))
		if res.Validate() != nil {
			fails++
		}
	}
	if fails > 2 {
		t.Fatalf("%d/%d failures under the targeted scheduler", fails, trials)
	}
}

// TestAsyncAfekGafniUnderTargetedScheduler slows the cancel/grant traffic,
// stressing the serialization of supporter switches.
func TestAsyncAfekGafniUnderTargetedScheduler(t *testing.T) {
	const n = 64
	for seed := uint64(0); seed < 10; seed++ {
		assign := ids.Random(ids.LogUniverse(n), n, xrand.New(seed+17))
		res := runAsync(t, simasync.Config{
			N: n, IDs: assign, Seed: seed,
			Delays: simasync.KindDelay{Slow: []uint8{KindCancel, KindCancelGrant, KindCancelRefuse}},
		}, NewAsyncAfekGafni())
		if err := res.Validate(); err != nil {
			t.Fatalf("seed %d: %v (deterministic algorithm must not fail)", seed, err)
		}
	}
}
