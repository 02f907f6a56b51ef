package lowerbound

import (
	"fmt"

	"cliquelect/internal/ids"
	"cliquelect/internal/proto"
	"cliquelect/internal/simsync"
	"cliquelect/internal/xrand"
)

// CheatingLasVegas is a deliberately broken "Las Vegas" algorithm that
// tries to beat the Omega(n) bound of Theorem 3.16 by sending o(n)
// messages: each node independently decides, using only private coins, to
// participate with probability p = c/sqrt(n); participants broadcast a rank
// to sqrt(n) random ports and the highest rank heard (including one's own)
// wins among participants, while non-participants silently decide
// non-leader. Expected messages: c·sqrt(n)·sqrt(n) = c·n... tuned lower:
// participants p = 1/sqrt(n), fan-out sqrt(n)/2, i.e. ~n/2 messages — and
// with probability bounded away from zero, *zero* nodes participate or two
// "local maxima" both win: exactly the failure events Theorem 3.16's proof
// composes into 0-leader and 2-leader executions.
type CheatingLasVegas struct {
	env         proto.Env
	participant bool
	rank        int64
	best        int64
	dec         proto.Decision
	halted      bool
}

// NewCheatingLasVegas returns the broken algorithm's factory.
func NewCheatingLasVegas() simsync.Factory {
	return func(int) simsync.Protocol { return &CheatingLasVegas{} }
}

// Init implements simsync.Protocol.
func (c *CheatingLasVegas) Init(env proto.Env) {
	c.env = env
	if env.N == 1 {
		c.dec = proto.Leader
		c.halted = true
		return
	}
	// Participation probability tuned so the expected message count stays
	// sublinear while silence remains plausible on n/2-node subsets.
	p := 1.0 / float64(intSqrt(env.N))
	if env.RNG.Bernoulli(p) {
		c.participant = true
		c.rank = env.RNG.Int63()%int64(env.N*env.N*env.N) + 1
	}
}

// Send implements simsync.Protocol.
func (c *CheatingLasVegas) Send(round int) []proto.Send {
	if round != 1 || !c.participant {
		return nil
	}
	fan := intSqrt(c.env.N) / 2
	if fan < 1 {
		fan = 1
	}
	if fan > c.env.Ports() {
		fan = c.env.Ports()
	}
	return c.env.Out.ToSample(c.env.RNG, c.env.Ports(), fan, proto.Message{Kind: 1, A: c.rank})
}

// Deliver implements simsync.Protocol.
func (c *CheatingLasVegas) Deliver(round int, inbox []proto.Delivery) {
	for _, d := range inbox {
		if d.Msg.A > c.best {
			c.best = d.Msg.A
		}
	}
	if round == 2 {
		if c.participant && c.rank > c.best {
			c.dec = proto.Leader
		} else {
			c.dec = proto.NonLeader
		}
		c.halted = true
	}
}

// Decision implements simsync.Protocol.
func (c *CheatingLasVegas) Decision() proto.Decision { return c.dec }

// Halted implements simsync.Protocol.
func (c *CheatingLasVegas) Halted() bool { return c.halted }

var _ simsync.Protocol = (*CheatingLasVegas)(nil)

// LasVegasReport summarizes a CheckLasVegas audit.
type LasVegasReport struct {
	N      int
	Trials int
	// ZeroLeader / MultiLeader count outright correctness failures.
	ZeroLeader, MultiLeader int
	// SilentHalf counts runs in which at least n/2 nodes neither sent nor
	// received any message — the raw material of Theorem 3.16's composition
	// argument: two such silent halves from disjoint ID sets can be glued
	// into a single execution whose leader count is wrong with positive
	// probability.
	SilentHalf int
	// MeanMessages is the observed average message complexity.
	MeanMessages float64
}

// Failed reports whether the audit found evidence against the Las Vegas
// claim (a wrong execution, or silent halves while sending o(n) messages).
func (r *LasVegasReport) Failed() bool {
	return r.ZeroLeader > 0 || r.MultiLeader > 0 ||
		(r.SilentHalf > 0 && r.MeanMessages < float64(r.N-1))
}

// CheckLasVegas audits an alleged Las Vegas leader-election algorithm per
// Theorem 3.16's argument: it runs the algorithm `trials` times on
// block-structured ID assignments, counting (a) outright failures and
// (b) "silent half" executions. A genuinely correct Las Vegas algorithm
// must never produce (a); and Theorem 3.16 shows it can only avoid
// composable silent halves by spending Omega(n) messages in expectation.
func CheckLasVegas(n, trials int, factory simsync.Factory, seed uint64) (*LasVegasReport, error) {
	if n < 2 || n%2 != 0 {
		return nil, fmt.Errorf("lowerbound: n = %d must be even and >= 2", n)
	}
	rng := xrand.New(seed)
	rep := &LasVegasReport{N: n, Trials: trials}
	var totalMsgs int64
	for i := 0; i < trials; i++ {
		// Disjoint ID blocks (Theorem 3.16 uses 3 mutually disjoint
		// assignments; block sampling gives fresh disjoint material each
		// trial).
		u := ids.Universe{Lo: 1, Hi: int64(8 * n * (i + 1))}
		assign := ids.Blocks(u, n/2, 2, rng)
		touched := newTouchCounter(n)
		res, err := simsync.Run(simsync.Config{
			N: n, IDs: assign, Seed: rng.Uint64(), Strict: true,
		}, func(node int) simsync.Protocol {
			return &touchTap{inner: factory(node), node: node, tc: touched}
		})
		if err != nil {
			return nil, err
		}
		totalMsgs += res.Messages
		switch len(res.Leaders()) {
		case 0:
			rep.ZeroLeader++
		case 1:
			// correct
		default:
			rep.MultiLeader++
		}
		if touched.silent() >= n/2 {
			rep.SilentHalf++
		}
	}
	if trials > 0 {
		rep.MeanMessages = float64(totalMsgs) / float64(trials)
	}
	return rep, nil
}

// touchCounter tracks which nodes sent or received any message.
type touchCounter struct {
	touched []bool
}

func newTouchCounter(n int) *touchCounter {
	return &touchCounter{touched: make([]bool, n)}
}

func (tc *touchCounter) silent() int {
	s := 0
	for _, t := range tc.touched {
		if !t {
			s++
		}
	}
	return s
}

// touchTap marks nodes as touched when they send or receive messages.
type touchTap struct {
	inner simsync.Protocol
	node  int
	tc    *touchCounter
}

func (tt *touchTap) Init(env proto.Env) { tt.inner.Init(env) }

func (tt *touchTap) Send(round int) []proto.Send {
	out := tt.inner.Send(round)
	if len(out) > 0 {
		tt.tc.touched[tt.node] = true
	}
	return out
}

func (tt *touchTap) Deliver(round int, inbox []proto.Delivery) {
	if len(inbox) > 0 {
		tt.tc.touched[tt.node] = true
	}
	tt.inner.Deliver(round, inbox)
}

func (tt *touchTap) Decision() proto.Decision { return tt.inner.Decision() }
func (tt *touchTap) Halted() bool             { return tt.inner.Halted() }

var _ simsync.Protocol = (*touchTap)(nil)

func intSqrt(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}
