package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"cliquelect/internal/ids"
	"cliquelect/internal/proto"
	"cliquelect/internal/simsync"
	"cliquelect/internal/xrand"
)

func TestExplicitWrapsDeterministicAlgorithms(t *testing.T) {
	cases := map[string]struct {
		factory simsync.Factory
		mkIDs   func(n int, rng *xrand.RNG) ids.Assignment
	}{
		"tradeoff": {NewTradeoff(3), func(n int, rng *xrand.RNG) ids.Assignment {
			return ids.Random(ids.LogUniverse(n), n, rng)
		}},
		"afekgafni": {NewAfekGafni(2), func(n int, rng *xrand.RNG) ids.Assignment {
			return ids.Random(ids.LogUniverse(n), n, rng)
		}},
		"smallid": {NewSmallID(4, 1), func(n int, rng *xrand.RNG) ids.Assignment {
			return ids.Random(ids.LinearUniverse(n, 1), n, rng)
		}},
	}
	for name, c := range cases {
		for _, n := range []int{2, 5, 16, 64} {
			rng := xrand.New(uint64(n))
			assign := c.mkIDs(n, rng)
			leaderID, res, err := runExplicit(simsync.Config{
				N: n, IDs: assign, Seed: 9, Strict: true,
			}, c.factory)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if leaderID != int64(assign[res.UniqueLeader()]) {
				t.Fatalf("%s n=%d: agreed ID %d, leader has %d", name, n, leaderID,
					assign[res.UniqueLeader()])
			}
		}
	}
}

func TestExplicitCostsOneRoundAndNMessages(t *testing.T) {
	const n = 64
	assign := ids.Random(ids.LogUniverse(n), n, xrand.New(3))
	inner, err := simsync.Run(simsync.Config{N: n, IDs: assign, Seed: 4}, NewTradeoff(3))
	if err != nil {
		t.Fatal(err)
	}
	_, wrapped, err := runExplicit(simsync.Config{N: n, IDs: assign, Seed: 4}, NewTradeoff(3))
	if err != nil {
		t.Fatal(err)
	}
	if wrapped.Rounds != inner.Rounds+1 {
		t.Fatalf("rounds: %d vs inner %d (+1 expected)", wrapped.Rounds, inner.Rounds)
	}
	if wrapped.Messages != inner.Messages+int64(n-1) {
		t.Fatalf("messages: %d vs inner %d (+n-1 expected)", wrapped.Messages, inner.Messages)
	}
}

func TestExplicitRandomizedLasVegas(t *testing.T) {
	// Explicit + Las Vegas: agreement must hold on every run.
	for seed := uint64(0); seed < 20; seed++ {
		const n = 64
		assign := ids.Random(ids.LogUniverse(n), n, xrand.New(seed+60))
		if _, _, err := runExplicit(simsync.Config{
			N: n, IDs: assign, Seed: seed, Strict: true,
		}, NewLasVegas()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestExplicitAdversarialWake(t *testing.T) {
	// Under adversarial wake-up the announcement reaches (and wakes)
	// everyone, so all nodes output the leader ID.
	const n = 32
	assign := ids.Random(ids.LogUniverse(n), n, xrand.New(8))
	leaderID, res, err := runExplicit(simsync.Config{
		N: n, IDs: assign, Seed: 2, Strict: true,
		Wake: []int{4, 9},
	}, NewAfekGafni(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAwake() {
		t.Fatal("announcement should wake everyone")
	}
	wantMax := assign[4]
	if assign[9] > wantMax {
		wantMax = assign[9]
	}
	if leaderID != int64(wantMax) {
		t.Fatalf("leader ID %d, want max root %d", leaderID, wantMax)
	}
}

func TestExplicitGivesUpWithoutLeader(t *testing.T) {
	// A degenerate inner protocol that never elects anyone: the wrapper must
	// still quiesce (bounded wait), with Output 0 everywhere.
	res, err := simsync.Run(simsync.Config{
		N: 8, IDs: ids.Sequential(ids.LinearUniverse(8, 1), 8), Seed: 1,
	}, NewExplicit(func(int) simsync.Protocol { return &allNonLeader{} }))
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatal("wrapper failed to quiesce")
	}
	if len(res.Leaders()) != 0 {
		t.Fatal("phantom leader")
	}
}

// allNonLeader instantly decides non-leader (a degenerate "election").
type allNonLeader struct{ halted bool }

func (p *allNonLeader) Init(proto.Env)           {}
func (p *allNonLeader) Send(int) []proto.Send    { return nil }
func (p *allNonLeader) Decision() proto.Decision { return proto.NonLeader }
func (p *allNonLeader) Halted() bool             { return p.halted }

func (p *allNonLeader) Deliver(round int, _ []proto.Delivery) {
	p.halted = true
}

// TestExplicitPropertyUniqueAgreement quick-checks agreement over random
// sizes and seeds.
func TestExplicitPropertyUniqueAgreement(t *testing.T) {
	prop := func(seed uint64, sz uint8) bool {
		n := int(sz%30) + 2
		assign := ids.Random(ids.LogUniverse(n), n, xrand.New(seed))
		_, _, err := runExplicit(simsync.Config{N: n, IDs: assign, Seed: seed}, NewTradeoff(3))
		return err == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// runExplicit executes an explicit election and checks agreement: every
// woken node must output the same leader ID, which must be the unique
// leader's. It returns the agreed leader ID.
func runExplicit(cfg simsync.Config, inner simsync.Factory) (int64, *simsync.Result, error) {
	wrappers := make([]*Explicit, cfg.N)
	res, err := simsync.Run(cfg, func(node int) simsync.Protocol {
		w := NewExplicit(inner)(node).(*Explicit)
		wrappers[node] = w
		return w
	})
	if err != nil {
		return 0, nil, err
	}
	if err := res.Validate(); err != nil {
		return 0, res, err
	}
	want := int64(cfg.IDs[res.UniqueLeader()])
	for u, w := range wrappers {
		if res.WakeRound[u] == 0 {
			continue // never woke: exempt (cannot output anything)
		}
		if w.Output() != want {
			return 0, res, fmt.Errorf("node %d output %d, want leader ID %d", u, w.Output(), want)
		}
	}
	return want, res, nil
}
