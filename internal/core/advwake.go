package core

import (
	"fmt"
	"math"

	"cliquelect/internal/proto"
	"cliquelect/internal/simsync"
)

// AdvWake2Round is the algorithm of Theorem 4.1: a 2-round randomized
// leader-election (and wake-up) algorithm for the synchronous clique under
// adversarial wake-up that succeeds with probability at least 1 - eps - 1/n
// and sends O(n^{3/2} · log(1/eps)) messages in expectation — tightly
// matching the Omega(n^{3/2}) lower bound of Theorem 4.2:
//
//   - Round 1: every adversary-woken node (root) sends a wake-up message
//     over ceil(sqrt(n)) uniformly random ports (without replacement).
//   - Round 2: every node that received a round-1 message becomes a
//     candidate with probability ln(1/eps)/ceil(sqrt(n)). A candidate draws
//     a rank from [n^4] and broadcasts it to all n-1 others. At the end of
//     round 2, a candidate becomes leader iff every rank it received is
//     strictly lower than its own; every other node becomes non-leader.
//
// Since some root sends ceil(sqrt(n)) wake-ups to distinct nodes, at least
// ceil(sqrt(n)) nodes attempt candidacy, so a candidate exists with
// probability >= 1 - eps; all ranks are distinct with probability >= 1-1/n.
// The candidate broadcasts additionally solve wake-up: every node is awake
// by the end of round 2 whenever a candidate exists.
//
// (The paper's prose restricts candidacy to nodes "awoken by the receipt of
// a round-1 message, i.e., not by the adversary"; we let every receiver of a
// round-1 message attempt candidacy regardless of how it first woke, which
// is what the proof of Theorem 4.1 actually uses — with the literal reading,
// an adversary waking all n nodes would leave no candidates at all.)
type AdvWake2Round struct {
	eps float64
	env proto.Env

	started  bool
	root     bool
	eligible bool // received a round-1 message

	candidate bool
	rank      int64

	bestSeen int64

	dec    proto.Decision
	halted bool
}

// NewAdvWake2Round returns a simsync factory for Theorem 4.1's algorithm
// with failure parameter eps in (0, 1). It panics on invalid eps; use
// ValidateEps to check first.
func NewAdvWake2Round(eps float64) simsync.Factory {
	if err := ValidateEps(eps); err != nil {
		panic(err)
	}
	return func(int) simsync.Protocol { return &AdvWake2Round{eps: eps} }
}

// ValidateEps checks Theorem 4.1's failure parameter.
func ValidateEps(eps float64) error {
	if !(eps > 0 && eps < 1) {
		return fmt.Errorf("core: eps = %v, need 0 < eps < 1", eps)
	}
	return nil
}

// RootFanout returns ceil(sqrt(n)) clamped to n-1.
func RootFanout(n int) int {
	f := int(math.Ceil(math.Sqrt(float64(n))))
	if f > n-1 {
		f = n - 1
	}
	if f < 1 {
		f = 1
	}
	return f
}

// CandidateProb returns ln(1/eps)/ceil(sqrt(n)), clamped to [0, 1].
func CandidateProb(n int, eps float64) float64 {
	p := math.Log(1/eps) / float64(RootFanout(n))
	return math.Min(1, p)
}

// Init implements simsync.Protocol.
func (a *AdvWake2Round) Init(env proto.Env) {
	a.env = env
	if env.N == 1 {
		a.dec = proto.Leader
		a.halted = true
	}
}

// Send implements simsync.Protocol.
func (a *AdvWake2Round) Send(round int) []proto.Send {
	if !a.started {
		a.started = true
		a.root = true // first callback is Send: adversary-woken
	}
	switch round {
	case 1:
		if !a.root {
			return nil
		}
		return a.env.Out.ToSample(a.env.RNG, a.env.Ports(), RootFanout(a.env.N), proto.Message{Kind: KindWakeup})
	case 2:
		if !a.eligible {
			return nil
		}
		if a.env.RNG.Bernoulli(CandidateProb(a.env.N, a.eps)) {
			a.candidate = true
			a.rank = drawRank(a.env.N, a.env.RNG)
			return a.env.Out.First(a.env.Ports(), proto.Message{Kind: KindRank, A: a.rank})
		}
	}
	return nil
}

// Deliver implements simsync.Protocol.
func (a *AdvWake2Round) Deliver(round int, inbox []proto.Delivery) {
	if !a.started {
		a.started = true // first callback is Deliver: message-woken
	}
	switch round {
	case 1:
		for _, d := range inbox {
			if d.Msg.Kind == KindWakeup {
				a.eligible = true
				break
			}
		}
	case 2:
		for _, d := range inbox {
			if d.Msg.Kind == KindRank && d.Msg.A > a.bestSeen {
				a.bestSeen = d.Msg.A
			}
		}
		if a.candidate && a.rank > a.bestSeen {
			a.dec = proto.Leader
		} else {
			a.dec = proto.NonLeader
		}
		a.halted = true
	}
}

// Decision implements simsync.Protocol.
func (a *AdvWake2Round) Decision() proto.Decision { return a.dec }

// Halted implements simsync.Protocol.
func (a *AdvWake2Round) Halted() bool { return a.halted }

var _ simsync.Protocol = (*AdvWake2Round)(nil)
