package core_test

// Cross-cutting property-based tests (testing/quick) over the protocol
// suite: the invariants the paper's correctness arguments promise must hold
// for arbitrary sizes, seeds, port mappings and ID assignments.

import (
	"testing"
	"testing/quick"

	"cliquelect/elect"
	. "cliquelect/internal/core"
	"cliquelect/internal/ids"
	"cliquelect/internal/portmap"
	"cliquelect/internal/simasync"
	"cliquelect/internal/simsync"
	"cliquelect/internal/xrand"
)

// pickMap derives one of the three oblivious port mappings from a selector.
func pickMap(sel uint8, n int, rng *xrand.RNG) portmap.Map {
	switch sel % 3 {
	case 0:
		return portmap.NewCanonical(n)
	case 1:
		return portmap.NewSharedPerm(n, rng)
	default:
		return portmap.NewLazyRandom(n, rng)
	}
}

// TestPropertyTradeoffMaxIDWins: Theorem 3.10's algorithm elects the
// maximum ID on every size, seed, and port mapping.
func TestPropertyTradeoffMaxIDWins(t *testing.T) {
	prop := func(seed uint64, sz, ksel, msel uint8) bool {
		n := int(sz%100) + 2
		k := int(ksel%4) + 3
		rng := xrand.New(seed)
		assign := ids.Random(ids.LogUniverse(n), n, rng)
		res, err := simsync.Run(simsync.Config{
			N: n, IDs: assign, Seed: rng.Uint64(), Ports: pickMap(msel, n, rng), Strict: true,
		}, NewTradeoff(k))
		if err != nil || res.Validate() != nil {
			return false
		}
		return assign[res.UniqueLeader()] == assign.Max()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAfekGafniMaxRootWins: under adversarial wake-up the
// Afek-Gafni baseline elects the maximum-ID root, for arbitrary wake sets.
func TestPropertyAfekGafniMaxRootWins(t *testing.T) {
	prop := func(seed uint64, sz, ksel, wsel uint8) bool {
		n := int(sz%60) + 2
		k := int(ksel%3) + 1
		rng := xrand.New(seed)
		assign := ids.Random(ids.LogUniverse(n), n, rng)
		wakeCount := int(wsel)%n + 1
		wake := rng.Sample(nil, n, wakeCount)
		res, err := simsync.Run(simsync.Config{
			N: n, IDs: assign, Seed: rng.Uint64(), Wake: wake, Strict: true,
		}, NewAfekGafni(k))
		if err != nil {
			return false
		}
		leader := res.UniqueLeader()
		if leader < 0 {
			return false
		}
		var maxRoot ids.ID
		for _, u := range wake {
			if assign[u] > maxRoot {
				maxRoot = assign[u]
			}
		}
		return assign[leader] == maxRoot
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySmallIDMinWins: Algorithm 1 elects the minimum ID within
// Theorem 3.15's bounds for any (d, g) and any assignment from the linear
// universe.
func TestPropertySmallIDMinWins(t *testing.T) {
	spec := lookup(t, "smallid")
	prop := func(seed uint64, sz, dsel, gsel uint8) bool {
		n := int(sz%100) + 2
		d := int(dsel)%n + 1
		g := int(gsel%4) + 1
		rng := xrand.New(seed)
		assign := ids.Random(ids.LinearUniverse(n, g), n, rng)
		res, err := simsync.Run(simsync.Config{
			N: n, IDs: assign, Seed: rng.Uint64(), Strict: true,
		}, NewSmallID(d, g))
		if err != nil || res.Validate() != nil {
			return false
		}
		msgs, rounds := spec.Bound(n, elect.Params{D: d, G: g}, 0, 0)
		return assign[res.UniqueLeader()] == assign.Min() &&
			float64(res.Rounds) <= rounds && float64(res.Messages) <= msgs
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyLasVegasNeverWrong: the Theorem 3.16 algorithm terminates
// with exactly one leader on every input — the Las Vegas property itself.
func TestPropertyLasVegasNeverWrong(t *testing.T) {
	prop := func(seed uint64, sz uint8) bool {
		n := int(sz%80) + 2
		rng := xrand.New(seed)
		assign := ids.Random(ids.LogUniverse(n), n, rng)
		res, err := simsync.Run(simsync.Config{
			N: n, IDs: assign, Seed: rng.Uint64(), Strict: true,
		}, NewLasVegas())
		return err == nil && res.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAsyncAfekGafniDeterministic: the Section 5.4 algorithm elects
// exactly one leader under arbitrary schedulers — with no failure
// probability at all.
func TestPropertyAsyncAfekGafniDeterministic(t *testing.T) {
	prop := func(seed uint64, sz, psel uint8) bool {
		n := int(sz%48) + 1
		rng := xrand.New(seed)
		assign := ids.Random(ids.LogUniverse(max(2, n)), n, rng)
		var policy simasync.DelayPolicy
		switch psel % 3 {
		case 0:
			policy = simasync.UnitDelay{}
		case 1:
			policy = simasync.UniformDelay{Lo: 0.01}
		default:
			policy = simasync.SkewDelay{Fast: 0.02, Mod: 2}
		}
		res, err := simasync.Run(simasync.Config{
			N: n, IDs: assign, Seed: rng.Uint64(), Delays: policy,
		}, NewAsyncAfekGafni())
		return err == nil && res.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySeedReproducibility: identical seeds reproduce identical
// measurements for the randomized protocols on both engines.
func TestPropertySeedReproducibility(t *testing.T) {
	prop := func(seed uint64, sz uint8) bool {
		n := int(sz%60) + 4
		assign := ids.Random(ids.LogUniverse(n), n, xrand.New(seed))
		runSync := func() (int64, int) {
			res, err := simsync.Run(simsync.Config{N: n, IDs: assign, Seed: seed}, NewSublinear())
			if err != nil {
				return -1, -1
			}
			return res.Messages, res.Rounds
		}
		m1, r1 := runSync()
		m2, r2 := runSync()
		if m1 != m2 || r1 != r2 || m1 < 0 {
			return false
		}
		runAsync := func() (int64, float64) {
			res, err := simasync.Run(simasync.Config{
				N: n, IDs: assign, Seed: seed,
				Delays: simasync.UniformDelay{Lo: 0.1},
				Wake:   simasync.SubsetAtZero([]int{0}),
			}, NewAsyncTradeoff(2))
			if err != nil {
				return -1, -1
			}
			return res.Messages, res.TimeUnits
		}
		am1, at1 := runAsync()
		am2, at2 := runAsync()
		return am1 == am2 && at1 == at2 && am1 >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestAdversarialAssignments: deterministic algorithms keep their
// guarantees on the adversarial assignment patterns from internal/ids.
func TestAdversarialAssignments(t *testing.T) {
	const n = 64
	assignments := map[string]ids.Assignment{
		"topheavy": ids.TopHeavy(ids.LogUniverse(n), n),
		"spread":   ids.Spread(ids.LogUniverse(n), n),
		"blocks":   ids.Blocks(ids.LogUniverse(n), 8, 8, xrand.New(9)),
	}
	for name, assign := range assignments {
		for _, tc := range []struct {
			algo    string
			factory simsync.Factory
		}{
			{"tradeoff", NewTradeoff(4)},
			{"afekgafni", NewAfekGafni(2)},
		} {
			res, err := simsync.Run(simsync.Config{
				N: n, IDs: assign, Seed: 3, Strict: true,
			}, tc.factory)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.algo, name, err)
			}
			if err := res.Validate(); err != nil {
				t.Fatalf("%s/%s: %v", tc.algo, name, err)
			}
			if got := assign[res.UniqueLeader()]; got != assign.Max() {
				t.Fatalf("%s/%s: leader ID %d, want %d", tc.algo, name, got, assign.Max())
			}
		}
	}
}

// TestCongestWords: every engine run accounts exactly 3 words per message —
// the CONGEST-by-construction property.
func TestCongestWords(t *testing.T) {
	const n = 32
	assign := ids.Random(ids.LogUniverse(n), n, xrand.New(4))
	res, err := simsync.Run(simsync.Config{N: n, IDs: assign, Seed: 5}, NewTradeoff(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Words != 3*res.Messages {
		t.Fatalf("words = %d, messages = %d", res.Words, res.Messages)
	}
}
