package core

import (
	"cliquelect/internal/proto"
	"cliquelect/internal/simsync"
)

// KindExplicitAnnounce is reserved for the Explicit wrapper's announcement.
const KindExplicitAnnounce uint8 = 255

// Explicit upgrades any implicit synchronous leader-election protocol to
// explicit leader election (Section 2 of the paper: every node must output
// the *ID* of the leader, not just a bit). The transformation is the
// standard one the paper uses in Section 3.5: once the inner protocol's
// leader has decided, it broadcasts its ID in one extra round; everyone
// else adopts the announced ID as its output.
//
// Cost: +1 round and +(n-1) messages on top of the inner protocol — which
// is why Theorem 3.16's Omega(n) bound makes explicit Las Vegas election
// cost Theta(n) even though implicit Monte Carlo election is Õ(sqrt(n)).
//
// If the inner protocol fails to elect a leader, wrapper nodes give up
// waitRounds rounds after the inner protocol halts, outputting 0.
type Explicit struct {
	inner simsync.Protocol
	env   proto.Env

	announced  bool  // this node broadcast its ID
	output     int64 // the leader ID this node reports (0 = unknown)
	sinceInner int   // rounds since the inner protocol halted
	halted     bool
}

// explicitWaitRounds bounds how long non-leaders wait for an announcement
// after their inner protocol halts. All the repository's synchronous
// protocols halt every node in the same round, so 4 is generous.
const explicitWaitRounds = 4

// NewExplicit wraps an implicit protocol factory.
func NewExplicit(inner simsync.Factory) simsync.Factory {
	return func(node int) simsync.Protocol {
		return &Explicit{inner: inner(node)}
	}
}

// Init implements simsync.Protocol.
func (e *Explicit) Init(env proto.Env) {
	e.env = env
	e.inner.Init(env)
	if env.N == 1 && e.inner.Decision() == proto.Leader {
		e.output = env.ID
		e.halted = true
	}
}

// Send implements simsync.Protocol.
func (e *Explicit) Send(round int) []proto.Send {
	// The inner protocol runs unmodified until it halts.
	if !e.inner.Halted() {
		return e.inner.Send(round)
	}
	if e.inner.Decision() == proto.Leader && !e.announced {
		e.announced = true
		e.output = e.env.ID
		return e.env.Out.First(e.env.Ports(), proto.Message{Kind: KindExplicitAnnounce, A: e.env.ID})
	}
	return nil
}

// Deliver implements simsync.Protocol.
func (e *Explicit) Deliver(round int, inbox []proto.Delivery) {
	// Forward everything except announcements to the inner protocol while
	// it is still running.
	if !e.inner.Halted() {
		forward := inbox[:0:0]
		for _, d := range inbox {
			if d.Msg.Kind != KindExplicitAnnounce {
				forward = append(forward, d)
			}
		}
		e.inner.Deliver(round, forward)
	}
	for _, d := range inbox {
		if d.Msg.Kind == KindExplicitAnnounce {
			e.output = d.Msg.A
			e.halted = true
			return
		}
	}
	if e.announced {
		e.halted = true
		return
	}
	if e.inner.Halted() {
		e.sinceInner++
		if e.sinceInner > explicitWaitRounds {
			e.halted = true // inner run produced no leader: give up
		}
	}
}

// Decision implements simsync.Protocol (the inner bit is passed through).
func (e *Explicit) Decision() proto.Decision { return e.inner.Decision() }

// Halted implements simsync.Protocol.
func (e *Explicit) Halted() bool { return e.halted }

// Output returns the leader ID this node learned (0 if the run failed).
func (e *Explicit) Output() int64 { return e.output }

var _ simsync.Protocol = (*Explicit)(nil)
