package core

import (
	"math"

	"cliquelect/internal/proto"
	"cliquelect/internal/simsync"
)

// KPPRT is the sampled-candidacy horizon election in the style of Kutten,
// Pandurangan, Peleg, Robinson and Trehan ("Sublinear bounds for randomized
// leader election", arXiv 1210.4822), generalized from the clique to any
// connected topology the engines can wire. Its signature is the KPPRT
// candidacy lottery: only Theta(log n) nodes in expectation compete, every
// competitor draws a rank from [n^4], and referees keep only the best bid
// they see — the protocol trades a small failure probability for a message
// bill far below the deterministic extinction of KuttenMoses.
//
// Two modes, chosen by the wiring:
//
//   - Clique (Env.Deg == 0): the classic 2-round algorithm. Each candidate
//     bids to ceil(sqrt(1.5·n·ln n)) referees over uniformly random ports;
//     any two candidates share a referee w.h.p. A referee acks (Win) only
//     its best round-1 bid, and a candidate that collects an ack from every
//     referee leads. O(sqrt(n)·log^{3/2} n) messages, 2 rounds.
//   - General graph (Env.Deg > 0): direct referee sampling is impossible
//     under KT0 — a node can only address its incident ports — so every
//     node acts as a referee for the bids that reach it: candidates flood
//     their rank, relays forward only improvements (one message per port
//     per round, so concurrent bids never contend for a link), and at the
//     horizon round 2·Diam+2 every node decides by the best rank it holds.
//     The engine's diameter estimate (double-sweep BFS) is at least half
//     the true diameter, so the horizon covers a full flood; the unique
//     maximum-rank candidate is the leader. Expected O(m·log log n)
//     messages (each node forwards only record-breaking ranks among
//     Theta(log n) random bids) and exactly 2·Diam+2 rounds — the timed
//     counterpart to KuttenMoses's echo termination, trading the echo's
//     message bill for reliance on the diameter estimate.
//
// Monte Carlo failure modes (all reported as OK=false runs, never a wrong
// unique answer): no node wins the candidacy lottery — probability
// (n+1)^{-2} under simultaneous wake-up, larger when the adversary wakes
// only a small set; two top candidates draw equal ranks (<= n^{-2}); on the
// clique, two candidates sharing no referee (o(1)).
type KPPRT struct {
	env proto.Env
	deg int

	sawEvent bool // candidacy = first event is Send, not Deliver
	cand     bool
	rank     int64

	// Clique mode.
	referees    []int
	bestBidPort int
	bestBidRank int64
	haveBid     bool
	wins        int

	// Graph mode.
	best    int64 // best rank seen (the node's referee verdict)
	horizon int
	relay   bool // an improvement arrived; forward next Send
	relayEx int  // ...on every port except this one (-1 = all, candidacy bid)

	dec    proto.Decision
	halted bool
}

// NewKPPRT returns a simsync factory for the sampled-candidacy election.
func NewKPPRT() simsync.Factory {
	return func(int) simsync.Protocol { return &KPPRT{} }
}

// KPPRTCandidateProb returns the candidacy probability min(1, 2·ln(n+1)/n):
// Theta(log n) candidates in expectation, at least one with probability
// 1 - (n+1)^{-2} under simultaneous wake-up.
func KPPRTCandidateProb(n int) float64 {
	if n <= 1 {
		return 1
	}
	return math.Min(1, 2*math.Log(float64(n+1))/float64(n))
}

// clique reports whether the node is wired into the default clique.
func (k *KPPRT) clique() bool { return k.env.Deg == 0 }

// Init implements simsync.Protocol.
func (k *KPPRT) Init(env proto.Env) {
	k.env = env
	k.deg = env.Ports()
	if env.N == 1 {
		k.dec = proto.Leader
		k.halted = true
		return
	}
	// Graph mode decides at round 2·Diam+2: the flood certainly completed
	// (the estimate is >= D/2) and one extra round absorbs the send/deliver
	// phase offset.
	k.horizon = 2*env.Diam + 2
}

// Send implements simsync.Protocol.
func (k *KPPRT) Send(round int) []proto.Send {
	if !k.sawEvent {
		// First event is a Send: the node was initially awake and enters the
		// candidacy lottery.
		k.sawEvent = true
		if k.env.RNG.Bernoulli(KPPRTCandidateProb(k.env.N)) {
			k.cand = true
			k.rank = drawRank(k.env.N, k.env.RNG)
			if k.clique() {
				k.referees = k.env.RNG.Sample(nil, k.deg, SublinearRefCount(k.env.N))
			} else {
				k.best = k.rank
				k.relay = true
				k.relayEx = -1
			}
		}
	}
	if k.clique() {
		switch round {
		case 1:
			if !k.cand {
				return nil
			}
			return k.env.Out.To(k.referees, proto.Message{Kind: KindProbe, A: k.rank})
		case 2:
			// Referee ack for the best bid; a candidate referee backs its own
			// rank first (cf. Sublinear: mutual referees must not both win).
			if !k.haveBid || (k.cand && k.bestBidRank <= k.rank) {
				return nil
			}
			return k.env.Out.One(k.bestBidPort, proto.Message{Kind: KindWin})
		}
		return nil
	}
	// Graph mode: forward the latest improvement everywhere it has not been.
	if !k.relay {
		return nil
	}
	k.relay = false
	k.env.Out.Take(0)
	for p := 0; p < k.deg; p++ {
		if p != k.relayEx {
			k.env.Out.Add(p, proto.Message{Kind: KindProbe, A: k.best})
		}
	}
	return k.env.Out.Sends()
}

// Deliver implements simsync.Protocol.
func (k *KPPRT) Deliver(round int, inbox []proto.Delivery) {
	k.sawEvent = true
	if k.clique() {
		switch round {
		case 1:
			for _, d := range inbox {
				if d.Msg.Kind != KindProbe {
					continue
				}
				if !k.haveBid || d.Msg.A > k.bestBidRank {
					k.haveBid = true
					k.bestBidRank = d.Msg.A
					k.bestBidPort = d.Port
				}
			}
		case 2:
			for _, d := range inbox {
				if d.Msg.Kind == KindWin {
					k.wins++
				}
			}
			if k.cand && k.wins == len(k.referees) {
				k.dec = proto.Leader
			} else {
				k.dec = proto.NonLeader
			}
			k.halted = true
		}
		return
	}
	// Graph mode: referee filtering — keep only the best rank, forward
	// improvements once (extinction keeps the link load at one message per
	// port per round).
	bestNew := int64(0)
	bestPort := -1
	for _, d := range inbox {
		if d.Msg.Kind == KindProbe && d.Msg.A > bestNew {
			bestNew = d.Msg.A
			bestPort = d.Port
		}
	}
	if bestNew > k.best {
		k.best = bestNew
		k.relay = true
		k.relayEx = bestPort
	}
	if round >= k.horizon {
		if k.cand && k.best == k.rank {
			k.dec = proto.Leader
		} else {
			k.dec = proto.NonLeader
		}
		k.halted = true
	}
}

// Decision implements simsync.Protocol.
func (k *KPPRT) Decision() proto.Decision { return k.dec }

// Halted implements simsync.Protocol.
func (k *KPPRT) Halted() bool { return k.halted }

var _ simsync.Protocol = (*KPPRT)(nil)
