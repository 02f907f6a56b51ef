package core_test

import (
	"testing"

	"cliquelect/elect"
	. "cliquelect/internal/core"
	"cliquelect/internal/ids"
	"cliquelect/internal/proto"
	"cliquelect/internal/simsync"
	"cliquelect/internal/xrand"
)

func TestAfekGafniSimultaneousElectsMaxID(t *testing.T) {
	for _, n := range []int{2, 3, 8, 17, 64, 100} {
		for _, k := range []int{1, 2, 3, 4} {
			assign := ids.Random(ids.LogUniverse(n), n, xrand.New(uint64(n+k)))
			res := runSync(t, simsync.Config{
				N: n, IDs: assign, Seed: uint64(k), Strict: true,
			}, NewAfekGafni(k))
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

func TestAfekGafniRoundBudget(t *testing.T) {
	// All message activity ends within the baseline's round bound.
	for _, k := range []int{1, 2, 3} {
		const n = 64
		assign := ids.Random(ids.LogUniverse(n), n, xrand.New(uint64(k)))
		res := runSync(t, simsync.Config{N: n, IDs: assign, Seed: 7}, NewAfekGafni(k))
		if _, bound := lookup(t, "afekgafni").Bound(n, elect.Params{K: k}, 0, 0); float64(res.Rounds) > bound {
			t.Fatalf("k=%d: rounds = %d > %.0f", k, res.Rounds, bound)
		}
	}
}

func TestAfekGafniMessageBound(t *testing.T) {
	for _, n := range []int{64, 256, 1024} {
		for _, k := range []int{1, 2, 3, 4} {
			assign := ids.Random(ids.LogUniverse(n), n, xrand.New(uint64(n+k)))
			res := runSync(t, simsync.Config{N: n, IDs: assign, Seed: 3}, NewAfekGafni(k))
			bound, _ := lookup(t, "afekgafni").Bound(n, elect.Params{K: k}, 0, 0)
			if float64(res.Messages) > bound {
				t.Fatalf("n=%d k=%d: %d messages exceed %.0f", n, k, res.Messages, bound)
			}
		}
	}
}

func TestAfekGafniAdversarialWake(t *testing.T) {
	// Under adversarial wake-up only round-1-awake nodes compete; the
	// winner is the max-ID root. Sleeping nodes woken by bids must still
	// decide (non-leader).
	const n, k = 40, 3
	assign := ids.Random(ids.LogUniverse(n), n, xrand.New(11))
	for _, wake := range [][]int{{0}, {5, 17}, {0, 1, 2, 3, 4, 5, 6, 7}} {
		res := runSync(t, simsync.Config{
			N: n, IDs: assign, Seed: 2, Strict: true,
			Wake: wake,
		}, NewAfekGafni(k))
		leader := res.UniqueLeader()
		if leader < 0 {
			t.Fatalf("wake=%v: no unique leader", wake)
		}
		var maxRoot ids.ID
		for _, u := range wake {
			if assign[u] > maxRoot {
				maxRoot = assign[u]
			}
		}
		if assign[leader] != maxRoot {
			t.Fatalf("wake=%v: leader ID %d, want max root %d", wake, assign[leader], maxRoot)
		}
		// The final full-fan-out iteration wakes everyone.
		if !res.AllAwake() {
			t.Fatalf("wake=%v: not all nodes woke", wake)
		}
		for u, d := range res.Decisions {
			if d == proto.Undecided {
				t.Fatalf("wake=%v: node %d undecided", wake, u)
			}
		}
	}
}

func TestAfekGafniSingleRootWins(t *testing.T) {
	// A single awake node must become leader even though it is the only
	// competitor.
	const n, k = 16, 2
	assign := ids.Sequential(ids.LinearUniverse(n, 1), n)
	res := runSync(t, simsync.Config{
		N: n, IDs: assign, Seed: 5, Strict: true,
		Wake: []int{3},
	}, NewAfekGafni(k))
	if got := res.UniqueLeader(); got != 3 {
		t.Fatalf("leader = %d, want 3", got)
	}
}

func TestAfekGafniSoloNode(t *testing.T) {
	res := runSync(t, simsync.Config{N: 1, IDs: ids.Assignment{1}}, NewAfekGafni(2))
	if res.UniqueLeader() != 0 {
		t.Fatal("solo node must lead")
	}
}

func TestValidateAfekGafniK(t *testing.T) {
	if err := ValidateAfekGafniK(0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if err := ValidateAfekGafniK(1); err != nil {
		t.Fatal(err)
	}
}
