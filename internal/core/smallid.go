package core

import (
	"fmt"

	"cliquelect/internal/proto"
	"cliquelect/internal/simsync"
)

// SmallID is Algorithm 1 of the paper (Theorem 3.15): a deterministic
// algorithm for the synchronous clique under simultaneous wake-up whose IDs
// are known to come from the linear-size universe {1 .. n·g}. It shows the
// large-ID-space hypothesis of the Omega(n log n) bound (Theorem 3.11) is
// necessary: with g = O(1) and d = o(log n) it elects a leader in sublinear
// time with o(n log n) messages.
//
// Round i scans the ID window [(i-1)·d·g + 1, i·d·g]: every node whose ID
// falls in the window broadcasts its ID to all. The first round in which any
// node broadcasts, every node receives the same nonempty ID set, selects its
// minimum as the leader, and terminates. Time <= ceil(n/d) rounds; messages
// <= d·g·(n-1) (at most d·g nodes share a window).
type SmallID struct {
	d, g int
	env  proto.Env

	myWindow int // round in which this node broadcasts
	sent     bool

	dec    proto.Decision
	halted bool
}

// NewSmallID returns a simsync factory for Algorithm 1 with window parameter
// d in [1, n] and universe slack g >= 1 (IDs must lie in {1..n·g}). It
// panics on invalid parameters; use ValidateSmallID to check first.
func NewSmallID(d, g int) simsync.Factory {
	if err := ValidateSmallID(d, g); err != nil {
		panic(err)
	}
	return simsync.Slab(SmallID{d: d, g: g})
}

// ValidateSmallID checks Algorithm 1's parameters.
func ValidateSmallID(d, g int) error {
	if d < 1 {
		return fmt.Errorf("core: smallid window d = %d, need d >= 1", d)
	}
	if g < 1 {
		return fmt.Errorf("core: smallid slack g = %d, need g >= 1", g)
	}
	return nil
}

// MaxRounds returns the worst-case round bound ceil(n/d).
func (s *SmallID) MaxRounds(n int) int { return CeilDiv(n, s.d) }

// Init implements simsync.Protocol.
func (s *SmallID) Init(env proto.Env) {
	s.env = env
	if env.N == 1 {
		s.dec = proto.Leader
		s.halted = true
		return
	}
	// ID id broadcasts in round ceil(id / (d·g)).
	window := int64(s.d) * int64(s.g)
	s.myWindow = int((env.ID + window - 1) / window)
}

// Send implements simsync.Protocol.
func (s *SmallID) Send(round int) []proto.Send {
	if round != s.myWindow {
		return nil
	}
	s.sent = true
	return s.env.Out.First(s.env.Ports(), proto.Message{Kind: KindIDClaim, A: s.env.ID})
}

// Deliver implements simsync.Protocol.
func (s *SmallID) Deliver(round int, inbox []proto.Delivery) {
	best := int64(0)
	if s.sent && round == s.myWindow {
		best = s.env.ID
	}
	for _, d := range inbox {
		if d.Msg.Kind != KindIDClaim {
			continue
		}
		if best == 0 || d.Msg.A < best {
			best = d.Msg.A
		}
	}
	if best == 0 {
		return // silent round: nobody's window fired yet
	}
	if best == s.env.ID {
		s.dec = proto.Leader
	} else {
		s.dec = proto.NonLeader
	}
	s.halted = true
}

// Decision implements simsync.Protocol.
func (s *SmallID) Decision() proto.Decision { return s.dec }

// Halted implements simsync.Protocol.
func (s *SmallID) Halted() bool { return s.halted }

var _ simsync.Protocol = (*SmallID)(nil)
