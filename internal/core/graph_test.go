package core_test

import (
	"testing"

	"cliquelect/elect"
	. "cliquelect/internal/core"
	"cliquelect/internal/ids"
	"cliquelect/internal/simsync"
	"cliquelect/internal/topo"
	"cliquelect/internal/xrand"
)

// buildTopo constructs a test topology, failing the test on error.
func buildTopo(t *testing.T, spec string, n int, seed uint64) *topo.Graph {
	t.Helper()
	g, err := topo.Build(spec, n, seed)
	if err != nil {
		t.Fatalf("topo.Build(%s, %d): %v", spec, n, err)
	}
	return g
}

func TestKuttenMosesElectsMaxIDOnEveryTopology(t *testing.T) {
	for _, spec := range []string{"ring", "torus", "rreg:d=4", "power:m=2", "clique"} {
		for _, n := range []int{2, 3, 8, 17, 64} {
			if spec == "rreg:d=4" && n < 8 {
				continue
			}
			var g *topo.Graph // nil: the clique, on the engine's own wiring
			if spec != "clique" {
				g = buildTopo(t, spec, n, uint64(n))
			}
			assign := ids.Random(ids.LogUniverse(n), n, xrand.New(uint64(n)+7))
			res := runSync(t, simsync.Config{
				N: n, IDs: assign, Seed: uint64(n), Topo: g, Strict: true,
			}, NewKuttenMoses())
			if err := res.Validate(); err != nil {
				t.Fatalf("%s n=%d: %v", spec, n, err)
			}
			if leader := res.UniqueLeader(); assign[leader] != assign.Max() {
				t.Fatalf("%s n=%d: leader ID %d, want max %d", spec, n, assign[leader], assign.Max())
			}
		}
	}
}

func TestKuttenMosesSingleNode(t *testing.T) {
	res := runSync(t, simsync.Config{
		N: 1, IDs: ids.Assignment{5}, Seed: 1, Topo: buildTopo(t, "ring", 1, 1), Strict: true,
	}, NewKuttenMoses())
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestKuttenMosesSubsetWake(t *testing.T) {
	// Under adversarial wake-up the flood must wake everyone and the winner
	// is the maximum ID among the initially-awake candidates.
	const n = 48
	for seed := uint64(1); seed <= 5; seed++ {
		g := buildTopo(t, "ring", n, seed)
		assign := ids.Random(ids.LogUniverse(n), n, xrand.New(seed))
		wake := xrand.New(seed+100).Sample(nil, n, 3)
		res := runSync(t, simsync.Config{
			N: n, IDs: assign, Seed: seed, Topo: g, Strict: true,
			Wake: wake,
		}, NewKuttenMoses())
		if err := res.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.AllAwake() {
			t.Fatalf("seed %d: flood left nodes asleep", seed)
		}
		var wantID int64
		for _, u := range wake {
			if assign[u] > wantID {
				wantID = assign[u]
			}
		}
		if leader := res.UniqueLeader(); assign[leader] != wantID {
			t.Fatalf("seed %d: leader ID %d, want best awake candidate %d", seed, assign[leader], wantID)
		}
	}
}

func TestKuttenMosesRingProfile(t *testing.T) {
	// The singular-optimality profile on the ring: messages near-linear in
	// m = n (extinction forwards only expected O(log n) record ranks per
	// node), rounds bounded by a small multiple of the diameter n/2.
	for _, n := range []int{64, 256, 1024} {
		g := buildTopo(t, "ring", n, uint64(n))
		assign := ids.Random(ids.LogUniverse(n), n, xrand.New(uint64(n)))
		res := runSync(t, simsync.Config{
			N: n, IDs: assign, Seed: 9, Topo: g, MaxRounds: 8 * n,
		}, NewKuttenMoses())
		if err := res.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		msgBound, roundBound := lookup(t, "kuttenmoses").Bound(n, elect.Params{}, g.M(), g.Diameter())
		if float64(res.Messages) > msgBound {
			t.Fatalf("n=%d: %d messages exceed O(m log n) bound %.0f", n, res.Messages, msgBound)
		}
		if float64(res.Rounds) > roundBound {
			t.Fatalf("n=%d: %d rounds exceed diameter bound %.0f", n, res.Rounds, roundBound)
		}
	}
}

func TestKPPRTOnGraphs(t *testing.T) {
	// Monte Carlo: count failures over seeds instead of demanding perfection.
	for _, spec := range []string{"ring", "torus", "rreg:d=4", "power:m=2"} {
		const n = 64
		fail := 0
		for seed := uint64(1); seed <= 20; seed++ {
			g := buildTopo(t, spec, n, seed)
			assign := ids.Random(ids.LogUniverse(n), n, xrand.New(seed))
			res := runSync(t, simsync.Config{
				N: n, IDs: assign, Seed: seed, Topo: g, Strict: true,
			}, NewKPPRT())
			if res.TimedOut {
				t.Fatalf("%s seed %d: timed out (horizon halting is broken)", spec, seed)
			}
			if res.Validate() != nil {
				fail++
				continue
			}
			// The horizon round bound is met exactly.
			msgs, want := lookup(t, "kpprt").Bound(n, elect.Params{}, g.M(), g.Diameter())
			if res.Rounds != int(want) {
				t.Fatalf("%s seed %d: decided at round %d, want horizon %.0f", spec, seed, res.Rounds, want)
			}
			if float64(res.Messages) > msgs {
				t.Fatalf("%s seed %d: %d messages exceed O(m log log n) bound %.0f", spec, seed, res.Messages, msgs)
			}
		}
		if fail > 4 {
			t.Fatalf("%s: %d/20 failed elections", spec, fail)
		}
	}
}

func TestKPPRTCliqueModeMatchesSublinearShape(t *testing.T) {
	// On the default clique wiring KPPRT is the classic 2-round referee
	// algorithm with a sublinear message bill.
	const n = 256
	bound, rounds := lookup(t, "kpprt").Bound(n, elect.Params{}, 0, 0)
	fail := 0
	for seed := uint64(1); seed <= 20; seed++ {
		assign := ids.Random(ids.LogUniverse(n), n, xrand.New(seed))
		res := runSync(t, simsync.Config{
			N: n, IDs: assign, Seed: seed, Strict: true,
		}, NewKPPRT())
		if float64(res.Rounds) > rounds {
			t.Fatalf("seed %d: %d rounds on the clique, want <= %.0f", seed, res.Rounds, rounds)
		}
		if float64(res.Messages) > bound {
			t.Fatalf("seed %d: %d messages exceed sublinear bound %.0f", seed, res.Messages, bound)
		}
		if res.Validate() != nil {
			fail++
		}
	}
	if fail > 4 {
		t.Fatalf("%d/20 failed elections on the clique", fail)
	}
}

func TestKPPRTSingleNode(t *testing.T) {
	for _, g := range []*topo.Graph{nil, buildTopo(t, "ring", 1, 1)} {
		res := runSync(t, simsync.Config{
			N: 1, IDs: ids.Assignment{3}, Seed: 1, Topo: g, Strict: true,
		}, NewKPPRT())
		if err := res.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
