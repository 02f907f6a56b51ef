package core_test

import (
	"testing"

	"cliquelect/elect"
	. "cliquelect/internal/core"
	"cliquelect/internal/ids"
	"cliquelect/internal/portmap"
	"cliquelect/internal/proto"
	"cliquelect/internal/simasync"
	"cliquelect/internal/simsync"
	"cliquelect/internal/xrand"
)

// runTradeoff executes Theorem 3.10's algorithm on one configuration.
func runTradeoff(t *testing.T, n, k int, seed uint64, pm portmap.Map) (*simsync.Result, ids.Assignment) {
	t.Helper()
	assign := ids.Random(ids.LogUniverse(n), n, xrand.New(seed+1000))
	return runSync(t, simsync.Config{
		N: n, IDs: assign, Seed: seed, Ports: pm, Strict: true,
	}, NewTradeoff(k)), assign
}

// runSync runs one configuration on the synchronous engine, failing the
// test on a configuration error.
func runSync(t *testing.T, cfg simsync.Config, f simsync.Factory) *simsync.Result {
	t.Helper()
	res, err := simsync.Run(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// lookup returns the registered elect spec whose Bound is the one home of
// every paper bound these tests hold a run to.
func lookup(t *testing.T, name string) elect.Spec {
	t.Helper()
	spec, err := elect.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestTradeoffElectsMaxID(t *testing.T) {
	for _, n := range []int{2, 3, 7, 16, 33, 64, 100, 128} {
		for _, k := range []int{3, 4, 5} {
			res, assign := runTradeoff(t, n, k, uint64(n*10+k), nil)
			if err := res.Validate(); err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
			leader := res.UniqueLeader()
			if assign[leader] != assign.Max() {
				t.Fatalf("n=%d k=%d: leader ID %d, want %d", n, k, assign[leader], assign.Max())
			}
		}
	}
}

func TestTradeoffExactRoundCount(t *testing.T) {
	// Theorem 3.10's round bound is met exactly (the final broadcast and
	// the decisions land in the last round).
	for _, k := range []int{3, 4, 5, 6} {
		res, _ := runTradeoff(t, 64, k, uint64(k), nil)
		if _, want := lookup(t, "tradeoff").Bound(64, elect.Params{K: k}, 0, 0); res.Rounds != int(want) {
			t.Fatalf("k=%d: rounds = %d, want %.0f", k, res.Rounds, want)
		}
	}
}

func TestTradeoffMessageBound(t *testing.T) {
	// Theorem 3.10's message bound; also sanity lower bound: the final
	// broadcast alone costs >= n-1.
	for _, n := range []int{64, 256, 512} {
		for _, k := range []int{3, 4, 5} {
			res, _ := runTradeoff(t, n, k, uint64(n+k), nil)
			bound, _ := lookup(t, "tradeoff").Bound(n, elect.Params{K: k}, 0, 0)
			if float64(res.Messages) > bound {
				t.Fatalf("n=%d k=%d: %d messages exceed bound %.0f", n, k, res.Messages, bound)
			}
			if res.Messages < int64(n-1) {
				t.Fatalf("n=%d k=%d: only %d messages", n, k, res.Messages)
			}
		}
	}
}

func TestTradeoffAllPortMaps(t *testing.T) {
	// Deterministic algorithms must elect the max ID under every port
	// mapping.
	const n, k = 48, 4
	for seed := uint64(0); seed < 5; seed++ {
		maps := []portmap.Map{
			portmap.NewCanonical(n),
			portmap.NewSharedPerm(n, xrand.New(seed)),
			portmap.NewLazyRandom(n, xrand.New(seed)),
		}
		for mi, pm := range maps {
			res, assign := runTradeoff(t, n, k, seed, pm)
			leader := res.UniqueLeader()
			if leader < 0 || assign[leader] != assign.Max() {
				t.Fatalf("map %d seed %d: wrong leader", mi, seed)
			}
		}
	}
}

func TestTradeoffSoloNode(t *testing.T) {
	res := runSync(t, simsync.Config{N: 1, IDs: ids.Assignment{7}}, NewTradeoff(3))
	if res.UniqueLeader() != 0 || res.Messages != 0 {
		t.Fatalf("solo node: %+v", res)
	}
}

func TestTradeoffEliminatedKeepRefereeing(t *testing.T) {
	// Losers decide NonLeader but the run must still finish with everyone
	// decided, which requires eliminated nodes to keep acking.
	res, _ := runTradeoff(t, 64, 5, 3, nil)
	for u, d := range res.Decisions {
		if d == proto.Undecided {
			t.Fatalf("node %d undecided", u)
		}
	}
}

func TestTradeoffBeatsAfekGafniAtEqualRounds(t *testing.T) {
	// The headline comparison (Section 3.3): at an equal round budget the
	// improved algorithm sends asymptotically fewer messages. Compare
	// Tradeoff with k (rounds 2k-3) against AfekGafni with round budget
	// ceil((2k-3)/2) iterations (rounds 2k-2 >= 2k-3, i.e. AG even gets one
	// round MORE) on a large clique.
	const n = 4096
	for _, k := range []int{3, 4} {
		agIters := k - 1 // 2k-2 rounds for AG vs 2k-3 for ours
		assign := ids.Random(ids.LogUniverse(n), n, xrand.New(9))
		ours := runSync(t, simsync.Config{N: n, IDs: assign, Seed: 1}, NewTradeoff(k))
		ag := runSync(t, simsync.Config{N: n, IDs: assign, Seed: 1}, NewAfekGafni(agIters))
		if ours.Messages >= ag.Messages {
			t.Fatalf("k=%d: tradeoff %d msgs not better than afek-gafni %d msgs",
				k, ours.Messages, ag.Messages)
		}
	}
}

func TestValidateTradeoffK(t *testing.T) {
	if err := ValidateTradeoffK(2); err == nil {
		t.Fatal("k=2 accepted")
	}
	if err := ValidateTradeoffK(3); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewTradeoff(1) did not panic")
		}
	}()
	NewTradeoff(1)
}

func TestFanout(t *testing.T) {
	cases := []struct {
		n, num, den, want int
	}{
		{16, 1, 2, 4},    // 16^(1/2)
		{16, 1, 4, 2},    // 16^(1/4)
		{27, 1, 3, 3},    // 27^(1/3)
		{100, 1, 2, 10},  // exact square root
		{100, 3, 2, 99},  // clamped to n-1
		{5, 1, 2, 3},     // ceil(sqrt 5)
		{1, 1, 1, 1},     // degenerate
		{1024, 2, 5, 16}, // 1024^(2/5) = 2^4
		{1024, 1, 10, 2}, // 1024^(1/10)
	}
	for _, c := range cases {
		if got := Fanout(c.n, c.num, c.den); got != c.want {
			t.Errorf("Fanout(%d,%d,%d) = %d, want %d", c.n, c.num, c.den, got, c.want)
		}
	}
}

func TestCeilHelpers(t *testing.T) {
	if CeilLog2(1) != 0 || CeilLog2(2) != 1 || CeilLog2(3) != 2 || CeilLog2(1024) != 10 || CeilLog2(1025) != 11 {
		t.Fatal("CeilLog2 wrong")
	}
	if CeilDiv(10, 3) != 4 || CeilDiv(9, 3) != 3 {
		t.Fatal("CeilDiv wrong")
	}
}

// TestSyncFanoutAllocBudget bounds a warm-pool run of the two synchronous
// fan-out tradeoffs, Theorem 3.10's algorithm and the Afek-Gafni baseline
// at k = 4 under simultaneous wake-up, to 16 + n/128 allocations. A run
// costs 9 at any n: the factory's one slab of protocol instances and the
// engine's per-run slices; its sends are built in the run's one
// engine-owned send buffer. A protocol instance or a send buffer per node
// costs n more and trips the budget. The count must also not grow with n:
// a run at n = 2048 may allocate at most 2 more times than one at n = 256.
func TestSyncFanoutAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget is enforced in the non-race build")
	}
	for _, algo := range []struct {
		name    string
		factory simsync.Factory
	}{
		{"tradeoff", NewTradeoff(4)},
		{"afekgafni", NewAfekGafni(4)},
	} {
		var small float64
		for _, n := range []int{256, 2048} {
			cfg := simsync.Config{N: n, IDs: ids.Random(ids.LogUniverse(n), n, xrand.New(7)), Seed: 3}
			runSync(t, cfg, algo.factory) // warm the engine's pools
			allocs := testing.AllocsPerRun(3, func() { runSync(t, cfg, algo.factory) })
			if budget := 16 + float64(n)/128; allocs > budget {
				t.Fatalf("%s n=%d: a warm run allocated %.0f times, budget %.0f", algo.name, n, allocs, budget)
			}
			if n == 256 {
				small = allocs
			} else if allocs > small+2 {
				t.Fatalf("%s: a warm run allocated %.0f times at n=%d, %.0f at n=256", algo.name, allocs, n, small)
			}
		}
	}
}

// TestFactoryAllocsOneSlab holds every protocol factory to one allocation
// per run whatever n is: the slab its nodes live in. A wrapper adds its own
// slab around the inner factory's. A factory that allocates each node on
// its own costs n allocations and fails.
func TestFactoryAllocsOneSlab(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget is enforced in the non-race build")
	}
	const n = 64
	syncNodes, asyncNodes := make([]simsync.Protocol, n), make([]simasync.Protocol, n)
	type factory struct {
		name  string
		fill  func()
		slabs float64
	}
	var factories []factory
	for name, f := range map[string]simsync.Factory{
		"tradeoff": NewTradeoff(3), "afekgafni": NewAfekGafni(2), "smallid": NewSmallID(2, 1),
		"sublinear": NewSublinear(), "lasvegas": NewLasVegas(), "advwake": NewAdvWake2Round(0.1),
		"spreadelect": NewSpreadElect(2), "kuttenmoses": NewKuttenMoses(), "kpprt": NewKPPRT(),
	} {
		explicit := NewExplicit(f)
		factories = append(factories,
			factory{name, func() { f(syncNodes) }, 1},
			factory{"explicit " + name, func() { explicit(syncNodes) }, 2})
	}
	for name, f := range map[string]simasync.Factory{
		"asynctradeoff": NewAsyncTradeoff(3), "asyncafekgafni": NewAsyncAfekGafni(), "asynclinear": NewAsyncLinear(n),
	} {
		factories = append(factories, factory{name, func() { f(asyncNodes) }, 1})
	}
	for _, f := range factories {
		if allocs := testing.AllocsPerRun(5, f.fill); allocs > f.slabs {
			t.Errorf("%s: filling %d nodes allocated %.0f times, want %.0f", f.name, n, allocs, f.slabs)
		}
	}
}
