package core

import (
	"fmt"
	"math"

	"cliquelect/internal/proto"
	"cliquelect/internal/simasync"
)

// AsyncTradeoff is Algorithm 2 of the paper (Theorem 5.1): the first
// message/time tradeoff for leader election in the asynchronous clique under
// adversarial wake-up. For a parameter k in [2, O(log n / log log n)] it
// elects a unique leader w.h.p. within k+8 time units using O(n^{1+1/k})
// messages:
//
//   - On wake-up (adversarial or first message), a node sends <wake up!>
//     over ceil(4·n^{1/k}) uniformly random ports; by the cover-tree
//     argument of Lemma 5.2 every node is awake within k+4 time units.
//   - It then becomes a candidate with probability 4·ln(n)/n; a candidate
//     draws a rank from [n^4] and sends <rank, compete> to
//     ceil(4·sqrt(n·ln n)) random referees.
//   - A referee keeps the best rank it has seen in rho_winner. The first
//     compete wins immediately ("you win!"); a lower-or-equal rank loses
//     immediately; a higher rank forces the referee to consult the stored
//     winner: if that node has not yet become leader it drops out and the
//     newcomer is crowned, otherwise the newcomer loses. Concurrent
//     competes at one referee are serialized through a FIFO queue.
//   - A candidate that collects "you win!" from all its referees while
//     still undecided becomes leader and informs all nodes (who become
//     non-leaders).
//
// Lemma 5.9's argument gives uniqueness: two all-win candidates would share
// a referee w.h.p., and a shared referee crowns a second candidate only
// after verifying the first has not become leader — at which point the
// first is out of the race for good.
type AsyncTradeoff struct {
	k   int
	env proto.Env

	candidate bool
	rank      int64
	refPorts  []int
	wins      int
	dropped   bool
	leader    bool

	// Referee state.
	winnerRank int64 // 0 = empty
	winnerPort int   // port leading to the stored winner; meaningless if self
	winnerSelf bool

	// Consult serialization: head of pending is in flight iff consulting.
	// Wake points pending at pendingBuf, so a referee queues its first four
	// competes without allocating.
	pending    []pendingCompete
	pendingBuf [4]pendingCompete
	consulting bool

	dec proto.Decision
}

type pendingCompete struct {
	port int
	rank int64
}

// NewAsyncTradeoff returns a simasync factory for Algorithm 2 with tradeoff
// parameter k >= 2. It panics on invalid k; use ValidateAsyncK to check
// first.
func NewAsyncTradeoff(k int) simasync.Factory {
	if err := ValidateAsyncK(k); err != nil {
		panic(err)
	}
	return simasync.Slab(AsyncTradeoff{k: k})
}

// NewAsyncLinear returns the substituted [14]-style near-linear baseline:
// Algorithm 2 run at its k = Theta(log n / log log n) extreme, where it
// sends O(n log n) messages and finishes in O(log n / log log n) + 8 time.
// See ARCHITECTURE.md, "Substitutions".
func NewAsyncLinear(n int) simasync.Factory {
	return NewAsyncTradeoff(AsyncLinearK(n))
}

// ValidateAsyncK checks Algorithm 2's tradeoff parameter.
func ValidateAsyncK(k int) error {
	if k < 2 {
		return fmt.Errorf("core: async tradeoff parameter k = %d, need k >= 2", k)
	}
	return nil
}

// WakeFanout returns ceil(4·n^{1/k}) clamped to [1, n-1] — the gamma·n^{1/k}
// wake-up fan-out of Lemma 5.2.
func WakeFanout(n, k int) int {
	f := int(math.Ceil(4 * math.Pow(float64(n), 1/float64(k))))
	if f > n-1 {
		f = n - 1
	}
	if f < 1 {
		f = 1
	}
	return f
}

// AsyncCandidateProb returns min(1, 4·ln(n)/n) (line 5 of Algorithm 2).
func AsyncCandidateProb(n int) float64 {
	if n <= 1 {
		return 1
	}
	return math.Min(1, 4*math.Log(float64(n))/float64(n))
}

// AsyncRefCount returns ceil(4·sqrt(n·ln n)) clamped to n-1 (line 8 of
// Algorithm 2).
func AsyncRefCount(n int) int {
	if n <= 2 {
		return n - 1
	}
	r := int(math.Ceil(4 * math.Sqrt(float64(n)*math.Log(float64(n)))))
	if r > n-1 {
		r = n - 1
	}
	return r
}

// Wake implements simasync.Protocol (lines 3-9 of Algorithm 2).
func (a *AsyncTradeoff) Wake(env proto.Env) []proto.Send {
	a.env = env
	a.pending = a.pendingBuf[:0]
	if env.N == 1 {
		a.leader = true
		a.dec = proto.Leader
		return nil
	}
	// The wake-ups start this callback's sends; the competes follow them.
	env.Out.ToSample(env.RNG, env.Ports(), WakeFanout(env.N, a.k), proto.Message{Kind: KindWakeup})
	if env.RNG.Bernoulli(AsyncCandidateProb(env.N)) {
		a.candidate = true
		a.rank = drawRank(env.N, env.RNG)
		a.winnerRank = a.rank // line 7: store own rank in rho_winner
		a.winnerSelf = true
		a.refPorts = env.RNG.Sample(nil, env.Ports(), AsyncRefCount(env.N))
		for _, p := range a.refPorts {
			a.send(p, proto.Message{Kind: KindCompeteAsync, A: a.rank})
		}
	}
	return env.Out.Sends()
}

// Receive implements simasync.Protocol.
func (a *AsyncTradeoff) Receive(d proto.Delivery) []proto.Send {
	a.env.Out.Take(0)
	switch d.Msg.Kind {
	case KindWakeup:
		// Wake-up handled by the engine's Wake callback; nothing more.
	case KindCompeteAsync:
		a.onCompete(d.Port, d.Msg.A)
	case KindYouWin:
		a.onWin()
	case KindYouLose:
		a.dropOut()
	case KindConsult:
		// Line 23/27: report whether this node already became leader; if
		// not, it drops out of the competition by being asked.
		if a.leader {
			a.send(d.Port, proto.Message{Kind: KindConsultReply, A: 1})
		} else {
			a.dropOut()
			a.send(d.Port, proto.Message{Kind: KindConsultReply, A: 0})
		}
	case KindConsultReply:
		a.onConsultReply(d.Msg.A == 1)
	case KindAnnounce:
		if !a.leader && a.dec == proto.Undecided {
			a.dec = proto.NonLeader
		}
	}
	return a.env.Out.Sends()
}

// onCompete handles <rank, compete> (lines 15-29).
func (a *AsyncTradeoff) onCompete(port int, rank int64) {
	switch {
	case a.winnerRank == 0:
		// Line 16-17: first compete ever seen: crown immediately.
		a.winnerRank = rank
		a.winnerPort = port
		a.winnerSelf = false
		a.send(port, proto.Message{Kind: KindYouWin})
		if a.dec == proto.Undecided && !a.candidate {
			a.dec = proto.NonLeader
		}
	case rank <= a.winnerRank:
		// Line 18-19.
		a.send(port, proto.Message{Kind: KindYouLose})
	default:
		// Line 20-29, serialized through the pending queue.
		a.pending = append(a.pending, pendingCompete{port: port, rank: rank})
		a.advanceQueue()
	}
}

// advanceQueue resolves queued competes. Competes no higher than the stored
// winner lose immediately; the rest wait for one consult of the stored
// winner. Batching keeps Lemma 5.10's constant decision time: a single
// consult round trip revokes the stored winner and crowns the best queued
// compete, rejecting the others, instead of paying one round trip per
// queued compete. The uniqueness invariant is untouched — a referee never
// crowns a newcomer before the previously crowned candidate has been
// revoked (or found to be the leader).
func (a *AsyncTradeoff) advanceQueue() {
	if a.consulting {
		return
	}
	for len(a.pending) > 0 {
		a.prunePending()
		if len(a.pending) == 0 {
			return
		}
		if !a.winnerSelf {
			a.consulting = true
			a.send(a.winnerPort, proto.Message{Kind: KindConsult})
			return
		}
		// Consulting itself (line 21's "w may be v itself"): resolve
		// locally without messages.
		if a.leader {
			a.rejectPending()
			return
		}
		a.dropOut()
		a.crownBestPending()
	}
}

// prunePending rejects queued competes that no longer beat the stored
// winner.
func (a *AsyncTradeoff) prunePending() {
	kept := a.pending[:0]
	for _, pc := range a.pending {
		if pc.rank <= a.winnerRank {
			a.send(pc.port, proto.Message{Kind: KindYouLose})
		} else {
			kept = append(kept, pc)
		}
	}
	a.pending = kept
}

// rejectPending sends you-lose to everything queued.
func (a *AsyncTradeoff) rejectPending() {
	for _, pc := range a.pending {
		a.send(pc.port, proto.Message{Kind: KindYouLose})
	}
	a.pending = a.pending[:0]
}

// crownBestPending crowns the highest queued compete and rejects the rest.
func (a *AsyncTradeoff) crownBestPending() {
	best := 0
	for i, pc := range a.pending {
		if pc.rank > a.pending[best].rank {
			best = i
		}
	}
	for i, pc := range a.pending {
		if i == best {
			continue
		}
		a.send(pc.port, proto.Message{Kind: KindYouLose})
	}
	winner := a.pending[best]
	a.pending = a.pending[:0]
	a.winnerRank = winner.rank
	a.winnerPort = winner.port
	a.winnerSelf = false
	a.send(winner.port, proto.Message{Kind: KindYouWin})
}

// onConsultReply resolves the in-flight consult (lines 23-29).
func (a *AsyncTradeoff) onConsultReply(isLeader bool) {
	if !a.consulting {
		return // stale reply; cannot happen with serialized consults
	}
	a.consulting = false
	a.prunePending()
	if len(a.pending) == 0 {
		return
	}
	if isLeader {
		// The stored winner is the elected leader: everything queued loses.
		a.rejectPending()
		return
	}
	a.crownBestPending()
	a.advanceQueue()
}

// onWin counts referee verdicts (lines 10-11).
func (a *AsyncTradeoff) onWin() {
	if !a.candidate || a.dropped || a.leader {
		return
	}
	a.wins++
	if a.wins == len(a.refPorts) {
		a.leader = true
		a.dec = proto.Leader
		for p := 0; p < a.env.Ports(); p++ {
			a.send(p, proto.Message{Kind: KindAnnounce, A: a.env.ID})
		}
	}
}

// dropOut takes this node out of the competition (it can still referee).
func (a *AsyncTradeoff) dropOut() {
	if a.leader {
		return
	}
	a.dropped = true
	if a.dec == proto.Undecided {
		a.dec = proto.NonLeader
	}
}

// Decision implements simasync.Protocol.
func (a *AsyncTradeoff) Decision() proto.Decision { return a.dec }

// send adds one send to what the current callback returns.
func (a *AsyncTradeoff) send(port int, m proto.Message) { a.env.Out.Add(port, m) }

var _ simasync.Protocol = (*AsyncTradeoff)(nil)
