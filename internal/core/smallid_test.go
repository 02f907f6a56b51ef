package core_test

import (
	"testing"

	"cliquelect/elect"
	. "cliquelect/internal/core"
	"cliquelect/internal/ids"
	"cliquelect/internal/simsync"
	"cliquelect/internal/xrand"
)

func runSmallID(t *testing.T, n, d, g int, assign ids.Assignment, seed uint64) *simsync.Result {
	t.Helper()
	return runSync(t, simsync.Config{
		N: n, IDs: assign, Seed: seed, Strict: true,
	}, NewSmallID(d, g))
}

func TestSmallIDElectsMinID(t *testing.T) {
	for _, n := range []int{2, 5, 16, 64, 100} {
		for _, g := range []int{1, 2, 4} {
			for _, d := range []int{1, 4, n} {
				u := ids.LinearUniverse(n, g)
				assign := ids.Random(u, n, xrand.New(uint64(n+g+d)))
				res := runSmallID(t, n, d, g, assign, 7)
				if err := res.Validate(); err != nil {
					t.Fatalf("n=%d d=%d g=%d: %v", n, d, g, err)
				}
				leader := res.UniqueLeader()
				if assign[leader] != assign.Min() {
					t.Fatalf("n=%d d=%d g=%d: leader ID %d, want min %d",
						n, d, g, assign[leader], assign.Min())
				}
			}
		}
	}
}

func TestSmallIDRoundAndMessageBounds(t *testing.T) {
	// Theorem 3.15's round and message bounds.
	for _, n := range []int{64, 256} {
		for _, d := range []int{2, 8, 16} {
			for _, g := range []int{1, 3} {
				u := ids.LinearUniverse(n, g)
				assign := ids.Spread(u, n) // adversarial: every window is full
				res := runSmallID(t, n, d, g, assign, 1)
				msgs, rounds := lookup(t, "smallid").Bound(n, elect.Params{D: d, G: g}, 0, 0)
				if float64(res.Rounds) > rounds {
					t.Fatalf("n=%d d=%d g=%d: rounds %d > %.0f", n, d, g, res.Rounds, rounds)
				}
				if float64(res.Messages) > msgs {
					t.Fatalf("n=%d d=%d g=%d: %d messages > %.0f", n, d, g, res.Messages, msgs)
				}
			}
		}
	}
}

func TestSmallIDFirstWindowShortCircuit(t *testing.T) {
	// With the minimum ID in window 1, the run ends in round 1 regardless
	// of d.
	const n = 32
	u := ids.LinearUniverse(n, 1)
	assign := ids.Sequential(u, n) // ID 1 present
	res := runSmallID(t, n, 4, 1, assign, 3)
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
}

func TestSmallIDLateWindow(t *testing.T) {
	// All IDs packed at the top of the universe: the algorithm must stay
	// silent until the last window, then finish.
	const n, g, d = 16, 2, 2
	assign := make(ids.Assignment, n) // inside LinearUniverse(16, 2) = {1..32}
	for i := range assign {
		assign[i] = ids.ID(17 + i) // IDs 17..32: first window at round ceil(17/4)=5
	}
	res := runSmallID(t, n, d, g, assign, 9)
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if want := CeilDiv(17, d*g); res.Rounds != want {
		t.Fatalf("rounds = %d, want %d", res.Rounds, want)
	}
	leader := res.UniqueLeader()
	if assign[leader] != 17 {
		t.Fatalf("leader ID = %d, want 17", assign[leader])
	}
}

func TestSmallIDSublinearRegime(t *testing.T) {
	// Theorem 3.15's punchline: g = O(1) and d = o(log n) gives o(n log n)
	// messages in sublinear (n/d) time. Verify messages < n·log2(n) for a
	// concrete instance with d = 2, g = 1.
	const n, d, g = 1024, 2, 1
	u := ids.LinearUniverse(n, g)
	assign := ids.Random(u, n, xrand.New(77))
	res := runSmallID(t, n, d, g, assign, 8)
	nlogn := int64(n) * int64(CeilLog2(n))
	if res.Messages >= nlogn {
		t.Fatalf("messages %d not below n·log n = %d", res.Messages, nlogn)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSmallIDSoloNode(t *testing.T) {
	res := runSync(t, simsync.Config{N: 1, IDs: ids.Assignment{1}}, NewSmallID(1, 1))
	if res.UniqueLeader() != 0 {
		t.Fatal("solo node must lead")
	}
}

func TestValidateSmallID(t *testing.T) {
	if err := ValidateSmallID(0, 1); err == nil {
		t.Fatal("d=0 accepted")
	}
	if err := ValidateSmallID(1, 0); err == nil {
		t.Fatal("g=0 accepted")
	}
	if err := ValidateSmallID(1, 1); err != nil {
		t.Fatal(err)
	}
}
