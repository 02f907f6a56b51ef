package core_test

import (
	"math"
	"testing"

	"cliquelect/elect"
	. "cliquelect/internal/core"
	"cliquelect/internal/ids"
	"cliquelect/internal/proto"
	"cliquelect/internal/simsync"
	"cliquelect/internal/xrand"
)

// --- Sublinear ([16] Monte Carlo baseline) ---

func TestSublinearSuccessRate(t *testing.T) {
	const n, trials = 256, 120
	_, rounds := lookup(t, "sublinear").Bound(n, elect.Params{}, 0, 0)
	fails := 0
	for seed := uint64(0); seed < trials; seed++ {
		assign := ids.Random(ids.LogUniverse(n), n, xrand.New(seed+5000))
		res := runSync(t, simsync.Config{N: n, IDs: assign, Seed: seed, Strict: true}, NewSublinear())
		if res.UniqueLeader() < 0 {
			fails++
		}
		if float64(res.Rounds) > rounds {
			t.Fatalf("seed %d: rounds = %d > %.0f", seed, res.Rounds, rounds)
		}
	}
	// w.h.p. success: allow a small handful of failures out of 120.
	if fails > 6 {
		t.Fatalf("%d/%d runs failed to elect a unique leader", fails, trials)
	}
}

func TestSublinearMessageBound(t *testing.T) {
	for _, n := range []int{256, 1024, 4096} {
		var worst int64
		for seed := uint64(0); seed < 10; seed++ {
			assign := ids.Random(ids.LogUniverse(n), n, xrand.New(seed))
			res := runSync(t, simsync.Config{N: n, IDs: assign, Seed: seed}, NewSublinear())
			if res.Messages > worst {
				worst = res.Messages
			}
		}
		if bound, _ := lookup(t, "sublinear").Bound(n, elect.Params{}, 0, 0); float64(worst) > bound {
			t.Fatalf("n=%d: worst %d messages exceed bound %.0f", n, worst, bound)
		}
	}
}

func TestSublinearIsActuallySublinear(t *testing.T) {
	// The defining property vs Las Vegas: messages = o(n). The polylog
	// factors dominate at small n, so check at n = 2^16 where the
	// asymptotics have kicked in.
	const n = 1 << 16
	assign := ids.Random(ids.LogUniverse(n), n, xrand.New(1))
	res := runSync(t, simsync.Config{N: n, IDs: assign, Seed: 2}, NewSublinear())
	if res.Messages >= int64(n) {
		t.Fatalf("messages %d >= n = %d", res.Messages, n)
	}
}

// --- LasVegas (Theorem 3.16) ---

func TestLasVegasNeverWrong(t *testing.T) {
	// The defining Las Vegas property: over many seeds and sizes, the
	// algorithm always terminates with exactly one leader and all nodes in
	// agreement.
	for _, n := range []int{2, 3, 16, 64, 256} {
		for seed := uint64(0); seed < 40; seed++ {
			assign := ids.Random(ids.LogUniverse(n), n, xrand.New(seed+uint64(n)))
			res := runSync(t, simsync.Config{N: n, IDs: assign, Seed: seed, Strict: true}, NewLasVegas())
			if err := res.Validate(); err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
		}
	}
}

func TestLasVegasRoundsMostlyThree(t *testing.T) {
	const n, trials = 256, 100
	_, rounds := lookup(t, "lasvegas").Bound(n, elect.Params{}, 0, 0)
	restarts := 0
	for seed := uint64(0); seed < trials; seed++ {
		assign := ids.Random(ids.LogUniverse(n), n, xrand.New(seed+900))
		res := runSync(t, simsync.Config{N: n, IDs: assign, Seed: seed}, NewLasVegas())
		if res.Rounds%3 != 0 {
			t.Fatalf("seed %d: rounds = %d, want multiple of 3", seed, res.Rounds)
		}
		if float64(res.Rounds) > rounds {
			restarts++
		}
	}
	if restarts > 10 {
		t.Fatalf("%d/%d runs needed restarts", restarts, trials)
	}
}

func TestLasVegasLinearMessages(t *testing.T) {
	// Theorem 3.16's O(n) messages w.h.p. — and at least n-1 (the
	// announcement), which is the Omega(n) lower-bound side made concrete.
	for _, n := range []int{256, 1024, 4096} {
		assign := ids.Random(ids.LogUniverse(n), n, xrand.New(uint64(n)))
		res := runSync(t, simsync.Config{N: n, IDs: assign, Seed: uint64(n), Strict: true}, NewLasVegas())
		if res.Messages < int64(n-1) {
			t.Fatalf("n=%d: %d messages below the announcement floor", n, res.Messages)
		}
		if bound, _ := lookup(t, "lasvegas").Bound(n, elect.Params{}, 0, 0); float64(res.Messages) > bound {
			t.Fatalf("n=%d: %d messages not O(n)", n, res.Messages)
		}
	}
}

// --- AdvWake2Round (Theorem 4.1) ---

func TestAdvWakeSuccessAcrossWakeSets(t *testing.T) {
	const n = 256
	rng := xrand.New(123)
	_, rounds := lookup(t, "advwake").Bound(n, elect.Params{Eps: 1.0 / 16}, 0, 0)
	wakeSizes := []int{1, 16, n / 2, n}
	for _, w := range wakeSizes {
		fails := 0
		const trials = 60
		for seed := uint64(0); seed < trials; seed++ {
			assign := ids.Random(ids.LogUniverse(n), n, xrand.New(seed+7777))
			res := runSync(t, simsync.Config{
				N: n, IDs: assign, Seed: seed, Strict: true,
				Wake: rng.Sample(nil, n, w),
			}, NewAdvWake2Round(1.0/16))
			if float64(res.Rounds) > rounds {
				t.Fatalf("w=%d seed=%d: rounds = %d > %.0f", w, seed, res.Rounds, rounds)
			}
			if res.UniqueLeader() < 0 || !res.AllAwake() {
				fails++
			}
		}
		// Success prob >= 1 - eps - 1/n with eps = 1/16: expect ~4 fails in
		// 60 at most; allow generous slack.
		if fails > 10 {
			t.Fatalf("wake=%d: %d/%d failures", w, fails, trials)
		}
	}
}

func TestAdvWakeMessageBound(t *testing.T) {
	const eps = 0.25
	for _, n := range []int{256, 1024} {
		var worst int64
		for seed := uint64(0); seed < 8; seed++ {
			assign := ids.Random(ids.LogUniverse(n), n, xrand.New(seed))
			res := runSync(t, simsync.Config{
				N: n, IDs: assign, Seed: seed,
				// A nil Wake wakes every node: the worst case, everyone is a root.
			}, NewAdvWake2Round(eps))
			if res.Messages > worst {
				worst = res.Messages
			}
		}
		if bound, _ := lookup(t, "advwake").Bound(n, elect.Params{Eps: eps}, 0, 0); float64(worst) > bound {
			t.Fatalf("n=%d: worst %d messages exceed %.0f", n, worst, bound)
		}
	}
}

func TestAdvWakeSingleRootWakesEveryone(t *testing.T) {
	// Theorem 4.1 doubles as a wake-up algorithm: from a single root, all
	// nodes must be awake by round 2 (when a candidate emerges).
	const n = 256
	ok := 0
	const trials = 30
	for seed := uint64(0); seed < trials; seed++ {
		assign := ids.Random(ids.LogUniverse(n), n, xrand.New(seed+31))
		res := runSync(t, simsync.Config{
			N: n, IDs: assign, Seed: seed,
			Wake: []int{0},
		}, NewAdvWake2Round(1.0/16))
		if res.AllAwake() {
			ok++
		}
	}
	if ok < trials-5 {
		t.Fatalf("only %d/%d runs woke everyone", ok, trials)
	}
}

func TestValidateEps(t *testing.T) {
	for _, bad := range []float64{0, 1, -0.5, 2} {
		if err := ValidateEps(bad); err == nil {
			t.Fatalf("eps=%v accepted", bad)
		}
	}
	if err := ValidateEps(0.1); err != nil {
		t.Fatal(err)
	}
}

// --- SpreadElect (substituted [14]-style baseline) ---

func TestSpreadElectCorrectness(t *testing.T) {
	const n = 256
	rng := xrand.New(55)
	for _, k := range []int{2, 4, 9} {
		fails := 0
		const trials = 30
		for seed := uint64(0); seed < trials; seed++ {
			assign := ids.Random(ids.LogUniverse(n), n, xrand.New(seed+101))
			res := runSync(t, simsync.Config{
				N: n, IDs: assign, Seed: seed, Strict: true,
				Wake: rng.Sample(nil, n, 1+int(rng.Uint64n(4))),
			}, NewSpreadElect(k))
			if _, rounds := lookup(t, "spreadelect").Bound(n, elect.Params{K: k}, 0, 0); float64(res.Rounds) > rounds {
				t.Fatalf("k=%d: rounds %d > %.0f", k, res.Rounds, rounds)
			}
			if res.UniqueLeader() < 0 {
				fails++
			}
		}
		if fails > 3 {
			t.Fatalf("k=%d: %d/%d failures", k, fails, trials)
		}
	}
}

func TestSpreadElectNearLinearMessages(t *testing.T) {
	// At k = 9 the spreading costs O(n^{10/9}) and the election O(n log n):
	// messages stay within the near-linear bound, well below the n^{3/2} of
	// the 2-round algorithm.
	const n, k = 4096, 9
	assign := ids.Random(ids.LogUniverse(n), n, xrand.New(3))
	res := runSync(t, simsync.Config{
		N: n, IDs: assign, Seed: 4,
		Wake: []int{0},
	}, NewSpreadElect(k))
	if bound, _ := lookup(t, "spreadelect").Bound(n, elect.Params{K: k}, 0, 0); float64(res.Messages) > bound {
		t.Fatalf("messages %d not near-linear", res.Messages)
	}
	if float64(res.Messages) > math.Pow(float64(n), 1.5)/4 {
		t.Fatalf("messages %d should be far below n^1.5", res.Messages)
	}
}

func TestSpreadElectAwakeNodesDecide(t *testing.T) {
	const n, k = 128, 3
	assign := ids.Random(ids.LogUniverse(n), n, xrand.New(21))
	res := runSync(t, simsync.Config{
		N: n, IDs: assign, Seed: 9, Strict: true,
		Wake: []int{7},
	}, NewSpreadElect(k))
	for u, d := range res.Decisions {
		if res.WakeRound[u] != 0 && d == proto.Undecided {
			t.Fatalf("awake node %d undecided", u)
		}
	}
}

func TestValidateSpreadK(t *testing.T) {
	if err := ValidateSpreadK(1); err == nil {
		t.Fatal("k=1 accepted")
	}
	if err := ValidateSpreadK(2); err != nil {
		t.Fatal(err)
	}
}

func TestRankSpaceAndProbHelpers(t *testing.T) {
	if RankSpace(10) != 10000 {
		t.Fatalf("RankSpace(10) = %d", RankSpace(10))
	}
	if p := SublinearCandidateProb(2); p <= 0 || p > 1 {
		t.Fatalf("prob = %v", p)
	}
	if SublinearRefCount(2) != 1 {
		t.Fatalf("refcount(2) = %d", SublinearRefCount(2))
	}
	if RootFanout(100) != 10 {
		t.Fatalf("RootFanout(100) = %d", RootFanout(100))
	}
	if CandidateProb(100, 0.5) <= 0 {
		t.Fatal("CandidateProb must be positive")
	}
	if AsyncLinearK(2) != 2 {
		t.Fatal("AsyncLinearK(2) != 2")
	}
	if k := AsyncLinearK(1 << 20); k < 3 || k > 8 {
		t.Fatalf("AsyncLinearK(2^20) = %d out of plausible range", k)
	}
}
