package core

import (
	"math"

	"cliquelect/internal/proto"
	"cliquelect/internal/simsync"
	"cliquelect/internal/xrand"
)

// Sublinear is the Monte Carlo baseline of Kutten, Pandurangan, Peleg,
// Robinson and Trehan [16] that Table 1 and Section 3.5 compare against: a
// 2-round randomized algorithm for the synchronous clique under simultaneous
// wake-up that elects a unique leader with high probability while sending
// only O(sqrt(n) · log^{3/2} n) messages.
//
//   - Round 1: every node independently becomes a candidate with probability
//     min(1, 8·ln(n)/n) — Theta(log n) candidates w.h.p., at least one
//     w.h.p. A candidate draws a rank from [n^4] and sends it to
//     ceil(2·sqrt(n·ln n)) referees over uniformly random ports (without
//     replacement); any two candidates then share a referee w.h.p.
//   - Round 2: every referee acks only the highest-ranked bid it received;
//     a candidate that collects acks from all of its referees becomes
//     leader. Everyone else becomes non-leader.
//
// Shared referees ack at most one of any two candidates, so two leaders
// coexist only if some candidate pair shares no referee (or ranks tie) —
// both o(1) events. With zero candidates no leader is elected; also o(1).
// Section 3.5 contrasts this with Las Vegas algorithms, which provably
// cannot go below Omega(n) messages.
type Sublinear struct {
	env proto.Env

	candidate bool
	rank      int64
	referees  []int // ports

	bestBidPort int
	bestBidRank int64
	haveBid     bool

	acks int

	dec    proto.Decision
	halted bool
}

// NewSublinear returns a simsync factory for the [16] baseline.
func NewSublinear() simsync.Factory {
	return func(int) simsync.Protocol { return &Sublinear{} }
}

// SublinearCandidateProb returns the candidacy probability 2·ln(n)/n:
// Theta(log n) candidates in expectation, at least one with probability
// 1 - n^{-2}.
func SublinearCandidateProb(n int) float64 {
	if n <= 1 {
		return 1
	}
	return math.Min(1, 2*math.Log(float64(n))/float64(n))
}

// SublinearRefCount returns the per-candidate referee count
// ceil(sqrt(1.5·n·ln n)): any two candidates share a referee with
// probability 1 - n^{-1.5}.
func SublinearRefCount(n int) int {
	if n <= 2 {
		return n - 1
	}
	r := int(math.Ceil(math.Sqrt(1.5 * float64(n) * math.Log(float64(n)))))
	if r > n-1 {
		r = n - 1
	}
	return r
}

// Init implements simsync.Protocol.
func (s *Sublinear) Init(env proto.Env) {
	s.env = env
	if env.N == 1 {
		s.dec = proto.Leader
		s.halted = true
		return
	}
	if env.RNG.Bernoulli(SublinearCandidateProb(env.N)) {
		s.candidate = true
		s.rank = drawRank(env.N, env.RNG)
		s.referees = env.RNG.Sample(nil, env.Ports(), SublinearRefCount(env.N))
	}
}

// Init draws candidacy from the node's private RNG; interface compliance:
var _ interface{ Int63() int64 } = (*xrand.RNG)(nil)

// Send implements simsync.Protocol.
func (s *Sublinear) Send(round int) []proto.Send {
	switch round {
	case 1:
		if !s.candidate {
			return nil
		}
		return s.env.Out.To(s.referees, proto.Message{Kind: KindRank, A: s.rank})
	case 2:
		// Ack the best received bid — but a candidate referee backs its own
		// bid first: it acks only bids that beat its own rank. (Without
		// this, two candidates that are each other's only referees — always
		// the case at n=2 — ack each other and both win.)
		if !s.haveBid || (s.candidate && s.bestBidRank <= s.rank) {
			return nil
		}
		return s.env.Out.One(s.bestBidPort, proto.Message{Kind: KindAck})
	}
	return nil
}

// Deliver implements simsync.Protocol.
func (s *Sublinear) Deliver(round int, inbox []proto.Delivery) {
	switch round {
	case 1:
		for _, d := range inbox {
			if d.Msg.Kind != KindRank {
				continue
			}
			if !s.haveBid || d.Msg.A > s.bestBidRank {
				s.haveBid = true
				s.bestBidRank = d.Msg.A
				s.bestBidPort = d.Port
			}
		}
	case 2:
		for _, d := range inbox {
			if d.Msg.Kind == KindAck {
				s.acks++
			}
		}
		if s.candidate && s.acks == len(s.referees) {
			s.dec = proto.Leader
		} else {
			s.dec = proto.NonLeader
		}
		s.halted = true
	}
}

// Decision implements simsync.Protocol.
func (s *Sublinear) Decision() proto.Decision { return s.dec }

// Halted implements simsync.Protocol.
func (s *Sublinear) Halted() bool { return s.halted }

var _ simsync.Protocol = (*Sublinear)(nil)
