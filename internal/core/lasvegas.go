package core

import (
	"cliquelect/internal/proto"
	"cliquelect/internal/simsync"
)

// LasVegas is the upper-bound side of Theorem 3.16: a Las Vegas explicit
// leader-election algorithm for the synchronous clique under simultaneous
// wake-up that terminates in 3 rounds and sends O(n) messages with high
// probability — and is *never* wrong, matching the Omega(n) Las Vegas lower
// bound of the same theorem up to constants.
//
// It is the transformation described in Section 3.5: run the 2-round Monte
// Carlo algorithm of [16] (see Sublinear), then spend a third round on a
// leader announcement; a node that does not observe exactly one announcement
// restarts the algorithm with fresh coins. Announcements go to every node,
// so all nodes see the same announcement count and restart in lockstep —
// the algorithm can never terminate with zero or two leaders:
//
//   - Rounds 3t+1, 3t+2 (attempt t): the [16] candidate/referee rounds.
//   - Round 3t+3: every candidate that collected all acks announces its ID
//     to all n-1 others. A node that receives exactly one announcement (or
//     is the unique announcer) decides and halts; otherwise attempt t+1
//     starts at round 3t+4.
//
// Expected attempts are 1 + o(1), so the w.h.p. complexity is 3 rounds and
// O(n) messages (the announcement dominates: n-1 messages; the MC rounds
// cost O(sqrt(n)·log^{3/2} n) = o(n)).
type LasVegas struct {
	env proto.Env

	attempt int // 0-based attempt index

	candidate bool
	rank      int64
	referees  []int

	bestBidPort int
	bestBidRank int64
	haveBid     bool

	acks      int
	announcer bool

	dec    proto.Decision
	halted bool
}

// NewLasVegas returns a simsync factory for the Theorem 3.16 Las Vegas
// algorithm.
func NewLasVegas() simsync.Factory {
	return simsync.Slab(LasVegas{})
}

// Init implements simsync.Protocol.
func (l *LasVegas) Init(env proto.Env) {
	l.env = env
	if env.N == 1 {
		l.dec = proto.Leader
		l.halted = true
		return
	}
	l.reset()
}

// reset re-rolls the per-attempt coins.
func (l *LasVegas) reset() {
	l.candidate = false
	l.referees = nil
	l.haveBid = false
	l.acks = 0
	l.announcer = false
	if l.env.RNG.Bernoulli(SublinearCandidateProb(l.env.N)) {
		l.candidate = true
		l.rank = drawRank(l.env.N, l.env.RNG)
		l.referees = l.env.RNG.Sample(nil, l.env.Ports(), SublinearRefCount(l.env.N))
	}
}

// phase maps the global round to the attempt-local round 1..3.
func (l *LasVegas) phase(round int) int { return (round-1)%3 + 1 }

// Send implements simsync.Protocol.
func (l *LasVegas) Send(round int) []proto.Send {
	switch l.phase(round) {
	case 1:
		if !l.candidate {
			return nil
		}
		return l.env.Out.To(l.referees, proto.Message{Kind: KindRank, A: l.rank})
	case 2:
		// As in Sublinear: a candidate referee acks only bids beating its
		// own rank, which breaks the n=2 mutual-ack cycle (and its infinite
		// restart loop).
		if !l.haveBid || (l.candidate && l.bestBidRank <= l.rank) {
			return nil
		}
		return l.env.Out.One(l.bestBidPort, proto.Message{Kind: KindAck})
	default:
		if !l.announcer {
			return nil
		}
		return l.env.Out.First(l.env.Ports(), proto.Message{Kind: KindAnnounce, A: l.env.ID})
	}
}

// Deliver implements simsync.Protocol.
func (l *LasVegas) Deliver(round int, inbox []proto.Delivery) {
	switch l.phase(round) {
	case 1:
		for _, d := range inbox {
			if d.Msg.Kind != KindRank {
				continue
			}
			if !l.haveBid || d.Msg.A > l.bestBidRank {
				l.haveBid = true
				l.bestBidRank = d.Msg.A
				l.bestBidPort = d.Port
			}
		}
	case 2:
		for _, d := range inbox {
			if d.Msg.Kind == KindAck {
				l.acks++
			}
		}
		l.announcer = l.candidate && l.acks == len(l.referees)
	default:
		// Count announcements; the announcer's own announcement counts for
		// itself (it does not receive it).
		count := 0
		if l.announcer {
			count++
		}
		for _, d := range inbox {
			if d.Msg.Kind == KindAnnounce {
				count++
			}
		}
		if count == 1 {
			if l.announcer {
				l.dec = proto.Leader
			} else {
				l.dec = proto.NonLeader
			}
			l.halted = true
			return
		}
		// Zero or multiple announcements: everyone observed the same count
		// (announcements are broadcast), so the whole network restarts.
		l.attempt++
		l.reset()
	}
}

// Decision implements simsync.Protocol.
func (l *LasVegas) Decision() proto.Decision { return l.dec }

// Halted implements simsync.Protocol.
func (l *LasVegas) Halted() bool { return l.halted }

// Attempts returns the number of completed (restarted) attempts; 0 means the
// first attempt succeeded.
func (l *LasVegas) Attempts() int { return l.attempt }

var _ simsync.Protocol = (*LasVegas)(nil)
