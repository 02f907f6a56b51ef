package core

import (
	"cliquelect/internal/proto"
	"cliquelect/internal/simsync"
)

// Tradeoff is the paper's improved deterministic algorithm (Theorem 3.10,
// Section 3.3) for the synchronous clique under simultaneous wake-up.
//
// For a parameter k >= 3 it runs k-2 two-round iterations followed by one
// final broadcast round, terminating in l = 2k-3 rounds with
// O(l · n^{1+2/(l+1)}) messages:
//
//   - Round 1 of iteration i: every survivor sends its ID to
//     ceil(n^{i/(k-1)}) referees (its first ports, in port order — the
//     algorithm is deterministic and oblivious to the port mapping).
//   - Round 2 of iteration i: every referee responds to the highest ID it
//     received this iteration and discards the rest. A survivor stays alive
//     iff every one of its referees responded.
//   - Final round: all remaining survivors broadcast their ID to everyone;
//     a survivor terminates as leader iff its own ID exceeds all IDs it
//     received; every other node terminates as non-leader.
//
// The node with the globally maximal ID is never eliminated (every referee
// it contacts prefers it), so at least one survivor always reaches the final
// round, and the final round keeps exactly the maximum.
type Tradeoff struct {
	k   int
	env proto.Env

	survivor   bool
	eliminated bool // decided NonLeader but still referees

	// Referee state for the current iteration: best bid seen in the
	// iteration's first round.
	bestBidPort int
	bestBidID   int64
	haveBid     bool

	// Survivor state: acks received vs expected in the current iteration.
	acks     int
	expected int

	finalBest int64 // max ID seen in the final broadcast round

	dec    proto.Decision
	halted bool
}

// NewTradeoff returns a simsync factory for Theorem 3.10's algorithm with
// parameter k >= 3 (round count l = 2k-3). It panics on invalid k; use
// ValidateTradeoffK to check first.
func NewTradeoff(k int) simsync.Factory {
	if err := ValidateTradeoffK(k); err != nil {
		panic(err)
	}
	return func(int) simsync.Protocol { return &Tradeoff{k: k} }
}

// Init implements simsync.Protocol.
func (t *Tradeoff) Init(env proto.Env) {
	t.env = env
	t.survivor = true
	if env.N == 1 {
		t.dec = proto.Leader
		t.halted = true
	}
}

// lastRound is the final broadcast round 2(k-2)+1.
func (t *Tradeoff) lastRound() int { return 2*t.k - 3 }

// iteration maps a global round to (iteration, phase) where phase 1 is the
// bid round and phase 2 the response round. The final broadcast round maps
// to (k-1, 1).
func (t *Tradeoff) iteration(round int) (it, phase int) {
	return (round-1)/2 + 1, (round-1)%2 + 1
}

// Send implements simsync.Protocol.
func (t *Tradeoff) Send(round int) []proto.Send {
	if round > t.lastRound() {
		return nil
	}
	it, phase := t.iteration(round)
	switch {
	case round == t.lastRound():
		// Final round: survivors broadcast to everyone.
		if !t.survivor {
			return nil
		}
		return t.env.Out.First(t.env.Ports(), proto.Message{Kind: KindCompete, A: t.env.ID})
	case phase == 1:
		// Bid round of iteration it: survivors contact their referees.
		if !t.survivor {
			return nil
		}
		t.expected = Fanout(t.env.N, it, t.k-1)
		t.acks = 0
		return t.env.Out.First(t.expected, proto.Message{Kind: KindCompete, A: t.env.ID})
	default:
		// Response round: referees answer their best bidder.
		if !t.haveBid {
			return nil
		}
		t.haveBid = false
		return t.env.Out.One(t.bestBidPort, proto.Message{Kind: KindAck})
	}
}

// Deliver implements simsync.Protocol.
func (t *Tradeoff) Deliver(round int, inbox []proto.Delivery) {
	if round > t.lastRound() {
		t.halted = true
		return
	}
	_, phase := t.iteration(round)
	switch {
	case round == t.lastRound():
		// Everyone decides at the end of the final round.
		t.finalBest = 0
		for _, d := range inbox {
			if d.Msg.Kind == KindCompete && d.Msg.A > t.finalBest {
				t.finalBest = d.Msg.A
			}
		}
		if t.survivor && t.env.ID > t.finalBest {
			t.dec = proto.Leader
		} else if t.dec == proto.Undecided {
			t.dec = proto.NonLeader
		}
		t.halted = true
	case phase == 1:
		// Record the iteration's best bid for the response round.
		for _, d := range inbox {
			if d.Msg.Kind != KindCompete {
				continue
			}
			if !t.haveBid || d.Msg.A > t.bestBidID {
				t.haveBid = true
				t.bestBidID = d.Msg.A
				t.bestBidPort = d.Port
			}
		}
	default:
		// Count acks; survivors missing any ack are eliminated.
		if !t.survivor {
			return
		}
		for _, d := range inbox {
			if d.Msg.Kind == KindAck {
				t.acks++
			}
		}
		if t.acks < t.expected {
			t.survivor = false
			if !t.eliminated {
				t.eliminated = true
				t.dec = proto.NonLeader // implicit election: losers may decide early
			}
		}
	}
}

// Decision implements simsync.Protocol.
func (t *Tradeoff) Decision() proto.Decision { return t.dec }

// Halted implements simsync.Protocol.
func (t *Tradeoff) Halted() bool { return t.halted }

var _ simsync.Protocol = (*Tradeoff)(nil)
