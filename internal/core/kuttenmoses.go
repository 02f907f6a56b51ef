package core

import (
	"cliquelect/internal/proto"
	"cliquelect/internal/simsync"
)

// KuttenMoses is the general-graph extinction election in the lineage of
// "Singularly Optimal Randomized Leader Election" (Kutten, Moses Jr.,
// Pandurangan, Peleg; arXiv 2008.02782): a KT0 CONGEST algorithm whose
// message bill scales with the edge count m and whose running time scales
// with the diameter D, on any connected topology the engines can wire
// (internal/topo) — clique included, where it degenerates to a one-hop
// shout-out.
//
// The algorithm is wave extinction with echo termination:
//
//   - Every initially-awake node is a candidate and floods a wave carrying
//     its ID as rank. A node always follows the best (highest) rank it has
//     seen: adopting a wave records the arrival port as the wave parent and
//     re-floods the rank on every other port; a wave with a lower rank than
//     the current one is simply ignored (extinction), and a wave meeting
//     itself is closed with a Same reply.
//   - Echo (PIF) convergecast: a node whose every non-parent edge has been
//     answered — by a child's Echo, a Same, or a crossing Cand of the same
//     rank — reports Echo to its parent. The maximum-rank wave is never
//     invaded, so its echo completes; every other wave is absorbed before
//     its echo can finish.
//   - The candidate whose own wave echoes back clean is the unique leader;
//     it floods Halt, on which every node decides and halts.
//
// One message per port per round, by construction: extinction forwards only
// the current best rank, so concurrent waves never contend for a link. The
// wave flood reaches every node within D rounds of the first wake-up, the
// echo returns within another D, and Halt takes a final D: O(D) rounds
// total. Each node re-floods once per adoption, and under the random ID
// assignments the engines use a node expects O(log n) adoptions (record
// values of a random sequence), for O(m log n) messages in expectation —
// the singular-optimality profile, up to the log factor, on every topology.
//
// Determinism: no coins; identical IDs, wiring and wake set reproduce the
// run exactly, and the awake node with the maximum ID always wins.
type KuttenMoses struct {
	env proto.Env
	deg int

	sawEvent bool // candidacy = first event is Send, not Deliver
	cand     bool

	best    int64  // rank of the wave the node follows (0 = none)
	parent  int    // wave parent port; -1 while rooting an own wave
	waiting []bool // per-port: flood sent, reply outstanding
	pend    int    // count of true entries in waiting
	echoed  bool   // echo for the current wave already queued

	outMsg []proto.Message // per-port queued message for the next Send
	outSet []bool

	haltAfterSend bool // queued messages are the node's last (Halt flood)
	dec           proto.Decision
	halted        bool
}

// NewKuttenMoses returns a simsync factory for the extinction election.
func NewKuttenMoses() simsync.Factory {
	return simsync.Slab(KuttenMoses{})
}

// Init implements simsync.Protocol.
func (k *KuttenMoses) Init(env proto.Env) {
	k.env = env
	k.deg = env.Ports()
	if env.N == 1 {
		k.dec = proto.Leader
		k.halted = true
		return
	}
	k.parent = -1
	k.waiting = make([]bool, k.deg)
	k.outMsg = make([]proto.Message, k.deg)
	k.outSet = make([]bool, k.deg)
}

// queue schedules msg on port p for the next Send, replacing anything
// already queued there (later obligations supersede dead-wave traffic).
func (k *KuttenMoses) queue(p int, msg proto.Message) {
	k.outMsg[p] = msg
	k.outSet[p] = true
}

// Send implements simsync.Protocol.
func (k *KuttenMoses) Send(round int) []proto.Send {
	if !k.sawEvent {
		// First event is a Send: the node was initially awake, so it is a
		// candidate and roots a wave ranked by its own ID.
		k.sawEvent = true
		k.cand = true
		k.best = k.env.ID
		for p := 0; p < k.deg; p++ {
			k.queue(p, proto.Message{Kind: KindCand, A: k.best})
			k.waiting[p] = true
		}
		k.pend = k.deg
	}
	k.env.Out.Take(0)
	for p := 0; p < k.deg; p++ {
		if k.outSet[p] {
			k.env.Out.Add(p, k.outMsg[p])
			k.outSet[p] = false
		}
	}
	if k.haltAfterSend {
		k.halted = true
	}
	return k.env.Out.Sends()
}

// adopt switches the node to a better wave arriving on port from.
func (k *KuttenMoses) adopt(rank int64, from int) {
	k.best = rank
	k.parent = from
	k.echoed = false
	k.pend = 0
	for p := 0; p < k.deg; p++ {
		k.waiting[p] = false
		k.outSet[p] = false // dead-wave traffic is obsolete
		if p != from {
			k.queue(p, proto.Message{Kind: KindCand, A: rank})
			k.waiting[p] = true
			k.pend++
		}
	}
}

// settle closes the waiting edge on port p (a reply or crossing wave for the
// current rank arrived there).
func (k *KuttenMoses) settle(p int) {
	if k.waiting[p] {
		k.waiting[p] = false
		k.pend--
	}
}

// Deliver implements simsync.Protocol.
func (k *KuttenMoses) Deliver(round int, inbox []proto.Delivery) {
	k.sawEvent = true
	// Halt dominates everything: decide, relay once, stop.
	halt := false
	for _, d := range inbox {
		if d.Msg.Kind == KindHalt {
			halt = true
			break
		}
	}
	if halt {
		if k.dec == proto.Undecided {
			k.dec = proto.NonLeader
		}
		for p := 0; p < k.deg; p++ {
			k.outSet[p] = false
			k.queue(p, proto.Message{Kind: KindHalt})
		}
		for _, d := range inbox {
			if d.Msg.Kind == KindHalt {
				k.outSet[d.Port] = false // the sender is already halting
			}
		}
		k.haltAfterSend = true
		return
	}

	// Extinction: find the best wave offered this round.
	bestNew := int64(0)
	bestPort := -1
	for _, d := range inbox {
		if d.Msg.Kind == KindCand && d.Msg.A > bestNew {
			bestNew = d.Msg.A
			bestPort = d.Port
		}
	}
	if bestNew > k.best {
		k.adopt(bestNew, bestPort)
	}
	for _, d := range inbox {
		switch d.Msg.Kind {
		case KindCand:
			if d.Msg.A != k.best || d.Port == k.parent {
				continue // extinct wave, or the adoption edge itself
			}
			// Same wave over a non-parent edge: if our flood is outstanding
			// (or just queued) on that port, the crossing Cand answers it and
			// ours will answer theirs; otherwise close their edge explicitly.
			if k.waiting[d.Port] {
				k.waiting[d.Port] = false
				k.pend--
				if k.outSet[d.Port] && k.outMsg[d.Port].Kind == KindCand {
					// Adopted this very round from another port: replace the
					// not-yet-sent flood with the closing reply.
					k.queue(d.Port, proto.Message{Kind: KindSame, A: k.best})
				}
			} else {
				k.queue(d.Port, proto.Message{Kind: KindSame, A: k.best})
			}
		case KindEcho, KindSame:
			if d.Msg.A == k.best {
				k.settle(d.Port)
			}
		}
	}
	// Echo when every non-parent edge is answered. The root whose own wave
	// completes is the unique survivor: it leads and floods Halt.
	if k.best > 0 && k.pend == 0 && !k.echoed {
		k.echoed = true
		if k.parent >= 0 {
			k.queue(k.parent, proto.Message{Kind: KindEcho, A: k.best})
			return
		}
		k.dec = proto.Leader
		for p := 0; p < k.deg; p++ {
			k.queue(p, proto.Message{Kind: KindHalt})
		}
		k.haltAfterSend = true
	}
}

// Decision implements simsync.Protocol.
func (k *KuttenMoses) Decision() proto.Decision { return k.dec }

// Halted implements simsync.Protocol.
func (k *KuttenMoses) Halted() bool { return k.halted }

var _ simsync.Protocol = (*KuttenMoses)(nil)
