package lowerbound

import (
	"cliquelect/internal/proto"
	"cliquelect/internal/simsync"
)

// SingleSend wraps a multicast synchronous protocol into the single-send
// simulation of Lemma 3.12: each round r of the inner algorithm A is
// simulated by the block of engine rounds (r-1)·n+1 .. r·n. The wrapper
// releases A's round-r messages one per engine round (a node sends at most
// n-1 messages per round, so the block always suffices), buffers everything
// it receives during the block, and hands the buffer to A at the block's
// final round. Lemma 3.12: the transformed algorithm sends exactly the same
// messages, elects the same leader, and takes at most n·T(n) rounds.
//
// The Theorem 3.11 harness runs algorithms through this transform because
// the port-opening census of Lemma 3.13/3.14 is defined for single-send
// algorithms.
type SingleSend struct {
	env   proto.Env
	inner simsync.Protocol

	queue  []proto.Send     // inner sends awaiting release
	buffer []proto.Delivery // deliveries awaiting the block boundary
}

// NewSingleSend returns a simsync factory applying the Lemma 3.12 transform
// to every node of the given inner factory.
func NewSingleSend(inner simsync.Factory) simsync.Factory {
	return func(node int) simsync.Protocol {
		return &SingleSend{inner: inner(node)}
	}
}

// Init implements simsync.Protocol.
func (s *SingleSend) Init(env proto.Env) {
	s.env = env
	s.inner.Init(env)
}

// innerRound maps an engine round to the simulated round of A.
func (s *SingleSend) innerRound(engineRound int) (r, offset int) {
	r = (engineRound-1)/s.env.N + 1
	offset = (engineRound-1)%s.env.N + 1
	return r, offset
}

// Send implements simsync.Protocol.
func (s *SingleSend) Send(engineRound int) []proto.Send {
	if s.env.N == 1 {
		return s.inner.Send(engineRound)
	}
	r, offset := s.innerRound(engineRound)
	if offset == 1 && !s.inner.Halted() {
		// Block start: collect A's round-r multicast out of the shared
		// send buffer before the release below reuses it.
		s.queue = append(s.queue, s.inner.Send(r)...)
	}
	if len(s.queue) == 0 {
		return nil
	}
	head := s.queue[0]
	s.queue = s.queue[1:]
	return s.env.Out.One(head.Port, head.Msg)
}

// Deliver implements simsync.Protocol.
func (s *SingleSend) Deliver(engineRound int, inbox []proto.Delivery) {
	if s.env.N == 1 {
		s.inner.Deliver(engineRound, inbox)
		return
	}
	s.buffer = append(s.buffer, inbox...)
	r, offset := s.innerRound(engineRound)
	if offset == s.env.N {
		// Block end: A processes the entire block's inbox as its round-r
		// receive phase.
		buf := s.buffer
		s.buffer = nil
		if !s.inner.Halted() {
			s.inner.Deliver(r, buf)
		}
	}
}

// Decision implements simsync.Protocol.
func (s *SingleSend) Decision() proto.Decision { return s.inner.Decision() }

// Halted implements simsync.Protocol: the wrapper only halts once the inner
// algorithm halted and all queued messages have been released.
func (s *SingleSend) Halted() bool {
	return s.inner.Halted() && len(s.queue) == 0 && len(s.buffer) == 0
}

var _ simsync.Protocol = (*SingleSend)(nil)
