package core

import (
	"cliquelect/internal/proto"
	"cliquelect/internal/simasync"
)

// AsyncAfekGafni is the deterministic asynchronous algorithm of Section 5.4
// (Theorem 5.14): the Afek-Gafni tradeoff algorithm translated to the
// asynchronous clique under simultaneous wake-up, using O(log n) time
// (counted from the last spontaneous wake-up) and O(n log n) messages.
//
// Every node starts as a candidate at level 0 and simultaneously acts as a
// supporter. A candidate at level i requests support from its first 2^i
// neighbors, itself being neighbor number one (so 2^i - 1 request messages
// over ports 0..2^i-2, each carrying <id, level>); when all of them ack, it
// climbs to level i+1, and it terminates as leader once its batch covers
// the whole clique (2^i >= n), announcing itself to everyone.
//
// A supporter backs at most one candidate at a time — initially itself.
// When a request arrives from a challenger w while it backs owner u, the
// supporter relays a conditional cancel to u; u refuses iff it is still
// live and lexicographically ahead of the challenger ((level, id) order),
// in which case the supporter kills w; otherwise u drops out and the
// supporter switches its ack to w. Concurrent requests at one supporter are
// serialized through a FIFO queue.
//
// Two deliberate deviations from the paper's prose, both documented here
// because the prose leaves the cases open:
//
//  1. The paper only describes switching toward challengers with *larger*
//     IDs. If a supporter's owner has already been killed elsewhere, a
//     smaller-ID challenger would then wait forever; we instead consult the
//     owner in both directions and let the owner's (level, id) vs.
//     (challenger level, challenger id) comparison decide. The paper's
//     progress argument (Lemma 5.11) survives: the lexicographically
//     maximal live candidate can never be refused, so it climbs until it
//     wins — deterministic termination, no high-probability caveat.
//  2. A node's own candidacy occupies its own supporter slot (it "acks
//     itself" at level 0). This makes the supporter-exclusivity counting of
//     Lemma 5.12 exact: every node backs at most one candidacy, so at most
//     n/2^i candidates ever reach level i.
type AsyncAfekGafni struct {
	env proto.Env

	// Candidate state.
	live        bool
	level       int
	pendingAcks int
	fullBatch   bool // current batch covers all n-1 ports: winning it elects
	leader      bool

	// Supporter state: the single candidacy this node currently backs.
	ownerSelf bool
	ownerPort int
	ownerID   int64

	// Switch serialization.
	switching bool
	inFlight  reqEntry
	queue     []reqEntry

	dec proto.Decision
}

type reqEntry struct {
	port  int
	id    int64
	level int64
}

// NewAsyncAfekGafni returns a simasync factory for Theorem 5.14's
// deterministic algorithm. Run it under simultaneous wake-up (a nil
// simasync.Config.Wake); under adversarial wake-up its time complexity is
// counted from the last spontaneous wake-up, per the theorem statement.
func NewAsyncAfekGafni() simasync.Factory {
	return simasync.Slab(AsyncAfekGafni{})
}

// Wake implements simasync.Protocol.
func (g *AsyncAfekGafni) Wake(env proto.Env) []proto.Send {
	g.env = env
	g.live = true
	g.ownerSelf = true
	g.ownerID = env.ID
	env.Out.Take(0)
	g.climb()
	return env.Out.Sends()
}

// climb advances the candidacy as far as its current acks allow: it either
// wins (batch covers the clique) or emits the next level's request batch.
func (g *AsyncAfekGafni) climb() {
	if !g.live || g.leader {
		return
	}
	for {
		if g.env.N == 1 {
			g.win()
			return
		}
		batch := 1<<uint(g.level) - 1 // external requests; self is neighbor #1
		if batch > g.env.Ports() {
			batch = g.env.Ports()
		}
		if batch == 0 {
			g.level++ // level 0 needs only the node's own (implicit) support
			continue
		}
		g.pendingAcks = batch
		g.fullBatch = batch == g.env.Ports()
		for p := 0; p < batch; p++ {
			g.send(p, proto.Message{Kind: KindRequest, A: g.env.ID, B: int64(g.level)})
		}
		return
	}
}

// win declares this node the leader and announces it to the clique.
func (g *AsyncAfekGafni) win() {
	g.leader = true
	g.dec = proto.Leader
	for p := 0; p < g.env.Ports(); p++ {
		g.send(p, proto.Message{Kind: KindAnnounce, A: g.env.ID})
	}
}

// Receive implements simasync.Protocol.
func (g *AsyncAfekGafni) Receive(d proto.Delivery) []proto.Send {
	g.env.Out.Take(0)
	switch d.Msg.Kind {
	case KindRequest:
		req := reqEntry{port: d.Port, id: d.Msg.A, level: d.Msg.B}
		if g.switching {
			g.queue = append(g.queue, req)
		} else {
			g.handleRequest(req)
		}
	case KindLevelAck:
		g.onAck(int(d.Msg.B))
	case KindCancel:
		g.onCancel(d.Port, d.Msg.A, d.Msg.B)
	case KindCancelGrant:
		g.onSwitchResolved(true)
	case KindCancelRefuse:
		g.onSwitchResolved(false)
	case KindKill:
		g.die()
	case KindAnnounce:
		if !g.leader && g.dec == proto.Undecided {
			g.dec = proto.NonLeader
		}
	}
	return g.env.Out.Sends()
}

// handleRequest processes one support request outside of any in-flight
// switch.
func (g *AsyncAfekGafni) handleRequest(req reqEntry) {
	switch {
	case !g.ownerSelf && req.id == g.ownerID:
		// Re-request from the candidate this node already backs (it climbed
		// a level): re-ack.
		g.send(req.port, proto.Message{Kind: KindLevelAck, B: req.level})
	case g.ownerSelf && req.id == g.env.ID:
		// Cannot happen: nodes do not send requests to themselves.
		g.send(req.port, proto.Message{Kind: KindLevelAck, B: req.level})
	case g.ownerSelf:
		// The owner is this node's own candidacy: resolve the cancel
		// locally. An elected leader always refuses.
		if g.leader || (g.live && g.lexAhead(req)) {
			g.send(req.port, proto.Message{Kind: KindKill})
			return
		}
		g.die()
		g.ownerSelf = false
		g.ownerPort = req.port
		g.ownerID = req.id
		g.send(req.port, proto.Message{Kind: KindLevelAck, B: req.level})
	default:
		// Consult the external owner with a conditional cancel.
		g.switching = true
		g.inFlight = req
		g.send(g.ownerPort, proto.Message{Kind: KindCancel, A: req.id, B: req.level})
	}
}

// lexAhead reports whether this node's live candidacy is strictly ahead of
// the challenger in (level, id) order.
func (g *AsyncAfekGafni) lexAhead(req reqEntry) bool {
	if int64(g.level) != req.level {
		return int64(g.level) > req.level
	}
	return g.env.ID > req.id
}

// onCancel is the owner side of the conditional cancel: refuse iff still
// live and lexicographically ahead; otherwise drop out and grant.
func (g *AsyncAfekGafni) onCancel(port int, challID, challLevel int64) {
	if g.leader || (g.live && g.lexAhead(reqEntry{id: challID, level: challLevel})) {
		g.send(port, proto.Message{Kind: KindCancelRefuse})
		return
	}
	g.die()
	g.send(port, proto.Message{Kind: KindCancelGrant})
}

// onSwitchResolved finishes the in-flight switch and drains the queue.
func (g *AsyncAfekGafni) onSwitchResolved(granted bool) {
	if !g.switching {
		return
	}
	g.switching = false
	req := g.inFlight
	if granted {
		g.ownerSelf = false
		g.ownerPort = req.port
		g.ownerID = req.id
		g.send(req.port, proto.Message{Kind: KindLevelAck, B: req.level})
	} else {
		g.send(req.port, proto.Message{Kind: KindKill})
	}
	for !g.switching && len(g.queue) > 0 {
		next := g.queue[0]
		g.queue = g.queue[1:]
		g.handleRequest(next)
	}
}

// onAck counts acks for the current level batch.
func (g *AsyncAfekGafni) onAck(level int) {
	if !g.live || g.leader || level != g.level || g.pendingAcks == 0 {
		return
	}
	g.pendingAcks--
	if g.pendingAcks == 0 {
		if g.fullBatch {
			g.win() // acked by the entire clique: elected
			return
		}
		g.level++
		g.climb()
	}
}

// die removes this node's candidacy from the race (its supporter role
// continues).
func (g *AsyncAfekGafni) die() {
	if !g.live || g.leader {
		return
	}
	g.live = false
	if g.dec == proto.Undecided {
		g.dec = proto.NonLeader
	}
}

// Decision implements simasync.Protocol.
func (g *AsyncAfekGafni) Decision() proto.Decision { return g.dec }

// send adds one send to what the current callback returns.
func (g *AsyncAfekGafni) send(port int, m proto.Message) { g.env.Out.Add(port, m) }

var _ simasync.Protocol = (*AsyncAfekGafni)(nil)
