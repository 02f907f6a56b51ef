package core

import (
	"cliquelect/internal/proto"
	"cliquelect/internal/simsync"
)

// AfekGafni is the deterministic tradeoff baseline of Afek and Gafni [1]
// that Theorem 3.10 improves on: for a parameter k >= 1 it runs k two-round
// survivor/referee iterations with referee counts ceil(n^{i/k}), taking
// l = 2k rounds and O(k · n^{1+1/k}) = O(l · n^{1+2/l}) messages.
//
// Unlike the paper's improved variant, the final iteration still pays the
// full bid/ack round trip, which is exactly the inefficiency Section 3.3
// removes: in iteration k a survivor contacts all n-1 nodes and becomes
// leader iff every single node acks it (at most one node can collect n-1
// acks because a referee acks at most one bid per iteration).
//
// The algorithm also runs under adversarial wake-up — its home model in [1]:
// nodes woken in round 1 by the adversary compete as survivors; nodes woken
// later by messages only referee, and decide non-leader immediately.
type AfekGafni struct {
	k   int
	env proto.Env

	started  bool // first callback seen (wake-kind detection)
	survivor bool

	bestBidPort int
	bestBidID   int64
	haveBid     bool

	acks     int
	expected int

	// finalMaxBid is the highest competing bid received during the final
	// iteration's bid round. A survivor wins only if it collected all acks
	// AND saw no final-iteration bid above its own ID; the second condition
	// is vacuous for n >= 3 (any two full-fan-out survivors share a referee
	// who acks at most one of them) but breaks the mutual-ack symmetry of
	// n = 2, where each node is the other's only referee.
	finalMaxBid int64

	dec      proto.Decision
	halted   bool
	deadline int // wake-relative halt round
}

// NewAfekGafni returns a simsync factory for the Afek-Gafni baseline with
// parameter k >= 1 (round count l = 2k). It panics on invalid k; use
// ValidateAfekGafniK to check first.
func NewAfekGafni(k int) simsync.Factory {
	if err := ValidateAfekGafniK(k); err != nil {
		panic(err)
	}
	return simsync.Slab(AfekGafni{k: k})
}

// Init implements simsync.Protocol.
func (a *AfekGafni) Init(env proto.Env) {
	a.env = env
	if env.N == 1 {
		a.dec = proto.Leader
		a.halted = true
	}
}

func (a *AfekGafni) lastRound() int { return 2 * a.k }

// Send implements simsync.Protocol.
func (a *AfekGafni) Send(round int) []proto.Send {
	if !a.started {
		// First callback is Send: this node was woken by the adversary in
		// round 1 and competes. (Message-woken nodes see Deliver first.)
		a.started = true
		a.survivor = true
		a.deadline = round + a.lastRound()
	}
	if round > a.lastRound() {
		return nil
	}
	it, phase := (round-1)/2+1, (round-1)%2+1
	if phase == 1 {
		if !a.survivor {
			return nil
		}
		a.expected = Fanout(a.env.N, it, a.k)
		a.acks = 0
		return a.env.Out.First(a.expected, proto.Message{Kind: KindCompete, A: a.env.ID})
	}
	if !a.haveBid {
		return nil
	}
	a.haveBid = false
	return a.env.Out.One(a.bestBidPort, proto.Message{Kind: KindAck})
}

// Deliver implements simsync.Protocol.
func (a *AfekGafni) Deliver(round int, inbox []proto.Delivery) {
	if !a.started {
		// First callback is Deliver: message-woken; referee only. A node
		// that never competed can decide non-leader right away (implicit
		// election) while continuing to referee until its deadline.
		a.started = true
		a.survivor = false
		a.dec = proto.NonLeader
		a.deadline = round + a.lastRound()
	}
	phase := (round-1)%2 + 1
	if phase == 1 {
		for _, d := range inbox {
			if d.Msg.Kind != KindCompete {
				continue
			}
			if round == a.lastRound()-1 && d.Msg.A > a.finalMaxBid {
				a.finalMaxBid = d.Msg.A
			}
			if !a.haveBid || d.Msg.A > a.bestBidID {
				a.haveBid = true
				a.bestBidID = d.Msg.A
				a.bestBidPort = d.Port
			}
		}
	} else if a.survivor {
		for _, d := range inbox {
			if d.Msg.Kind == KindAck {
				a.acks++
			}
		}
		if a.acks < a.expected {
			a.survivor = false
			a.dec = proto.NonLeader
		} else if round == a.lastRound() && a.expected == a.env.Ports() &&
			a.env.ID > a.finalMaxBid {
			// Survived the full-fan-out final iteration: leader.
			a.dec = proto.Leader
		}
	}
	if round >= a.deadline || (round >= a.lastRound() && a.dec != proto.Undecided) {
		if a.dec == proto.Undecided {
			a.dec = proto.NonLeader
		}
		a.halted = true
	}
}

// Decision implements simsync.Protocol.
func (a *AfekGafni) Decision() proto.Decision { return a.dec }

// Halted implements simsync.Protocol.
func (a *AfekGafni) Halted() bool { return a.halted }

var _ simsync.Protocol = (*AfekGafni)(nil)
