package core

import (
	"fmt"
	"math"

	"cliquelect/internal/proto"
	"cliquelect/internal/simsync"
)

// SpreadElect is the substituted stand-in for the synchronous O(n)-message
// constant-round baseline of Kutten et al. [14] that Table 1 lists ("9
// rounds, O(n) messages, w.h.p."). The original construction is not
// described in the reproduced paper; this baseline occupies the same corner
// of the tradeoff space — near-linear messages at small round counts —
// which is the only property the comparison rows use. See ARCHITECTURE.md,
// "Substitutions".
//
// Structure (parameter k >= 2, default 9 to mirror the cited row):
//
//   - Rounds 1..k+2 (spreading): every node, in the round after it wakes,
//     sends wake-up messages over ceil(4·n^{1/k}) uniformly random ports
//     (no spreading after round k+2 — by then every node is awake w.h.p.,
//     by the synchronous analogue of Lemma 5.2).
//   - Round k+3: every awake node becomes a candidate with probability
//     2·ln(n)/n; candidates draw ranks from [n^4] and bid to
//     ceil(sqrt(1.5·n·ln n)) random referees.
//   - Round k+4: referees ack the best bid they received (candidate
//     referees only ack bids above their own rank).
//   - Round k+5: fully-acked candidates announce their rank to everyone;
//     every node takes the maximum announced rank as the leader and
//     decides. The announcement also wakes any node the spreading missed.
//
// Total: k+5 rounds and O(n^{1+1/k} + n) messages w.h.p. Like the
// substituted asynchronous baseline, it assumes nodes can read the global
// round number (synchronized clocks); the genuine [14] construction avoids
// this at significant additional machinery.
type SpreadElect struct {
	k   int
	env proto.Env

	started  bool
	spreadAt int // round in which to send wake-ups; 0 = none pending

	candidate bool
	rank      int64
	referees  []int

	bestBidPort int
	bestBidRank int64
	haveBid     bool
	acks        int

	dec    proto.Decision
	halted bool
}

// NewSpreadElect returns a simsync factory with spreading parameter k >= 2.
// It panics on invalid k; use ValidateSpreadK to check first.
func NewSpreadElect(k int) simsync.Factory {
	if err := ValidateSpreadK(k); err != nil {
		panic(err)
	}
	return simsync.Slab(SpreadElect{k: k})
}

// ValidateSpreadK checks the spreading parameter.
func ValidateSpreadK(k int) error {
	if k < 2 {
		return fmt.Errorf("core: spread parameter k = %d, need k >= 2", k)
	}
	return nil
}

// SpreadFanout returns ceil(4·n^{1/k}) clamped to [1, n-1].
func SpreadFanout(n, k int) int {
	f := int(math.Ceil(4 * math.Pow(float64(n), 1/float64(k))))
	if f > n-1 {
		f = n - 1
	}
	if f < 1 {
		f = 1
	}
	return f
}

// Init implements simsync.Protocol.
func (s *SpreadElect) Init(env proto.Env) {
	s.env = env
	if env.N == 1 {
		s.dec = proto.Leader
		s.halted = true
	}
}

// Send implements simsync.Protocol.
func (s *SpreadElect) Send(round int) []proto.Send {
	if !s.started {
		s.started = true
		s.spreadAt = round // adversary-woken: spread immediately
	}
	switch {
	case s.spreadAt == round && round <= s.k+2:
		s.spreadAt = 0
		return s.env.Out.ToSample(s.env.RNG, s.env.Ports(), SpreadFanout(s.env.N, s.k), proto.Message{Kind: KindWakeup})
	case round == s.k+3:
		if !s.env.RNG.Bernoulli(SublinearCandidateProb(s.env.N)) {
			return nil
		}
		s.candidate = true
		s.rank = drawRank(s.env.N, s.env.RNG)
		s.referees = s.env.RNG.Sample(nil, s.env.Ports(), SublinearRefCount(s.env.N))
		return s.env.Out.To(s.referees, proto.Message{Kind: KindRank, A: s.rank})
	case round == s.k+4:
		if !s.haveBid || (s.candidate && s.bestBidRank <= s.rank) {
			return nil
		}
		return s.env.Out.One(s.bestBidPort, proto.Message{Kind: KindAck})
	case round == s.k+5:
		if !s.candidate || s.acks < len(s.referees) {
			return nil
		}
		return s.env.Out.First(s.env.Ports(), proto.Message{Kind: KindAnnounce, A: s.rank})
	}
	return nil
}

// Deliver implements simsync.Protocol.
func (s *SpreadElect) Deliver(round int, inbox []proto.Delivery) {
	if !s.started {
		// Message-woken at the end of this round; spread in the next round
		// if still inside the spreading window.
		s.started = true
		if round+1 <= s.k+2 {
			s.spreadAt = round + 1
		}
	}
	switch {
	case round == s.k+3:
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
	case round == s.k+4:
		for _, d := range inbox {
			if d.Msg.Kind == KindAck {
				s.acks++
			}
		}
	case round >= s.k+5:
		// Decide on the maximum announced rank; the announcer's own rank
		// counts for itself.
		best := int64(0)
		if s.candidate && s.acks >= len(s.referees) {
			best = s.rank
		}
		for _, d := range inbox {
			if d.Msg.Kind == KindAnnounce && d.Msg.A > best {
				best = d.Msg.A
			}
		}
		if best != 0 && s.candidate && best == s.rank {
			s.dec = proto.Leader
		} else {
			s.dec = proto.NonLeader
		}
		s.halted = true
	}
}

// Decision implements simsync.Protocol.
func (s *SpreadElect) Decision() proto.Decision { return s.dec }

// Halted implements simsync.Protocol.
func (s *SpreadElect) Halted() bool { return s.halted }

var _ simsync.Protocol = (*SpreadElect)(nil)
