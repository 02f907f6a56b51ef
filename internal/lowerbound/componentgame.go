// Package lowerbound turns the paper's lower-bound proofs into executable
// adversaries and checkers:
//
//   - ComponentGame plays the adaptive port-wiring adversary of Theorem 3.8
//     / Lemma 3.9 against a real deterministic algorithm and verifies the
//     per-round component-growth cap that forces the time/message tradeoff.
//   - SingleSend implements the Lemma 3.12 transform from multicast to
//     single-send algorithms, used by the Theorem 3.11 harness.
//   - CheatingLasVegas + CheckLasVegas exhibit the Theorem 3.16 argument:
//     any o(n)-message Las Vegas algorithm has silent node sets whose
//     composition breaks correctness.
//   - WakeupGame measures the message/success tradeoff behind Theorem 4.2's
//     Omega(n^{3/2}) bound for 2-round wake-up.
package lowerbound

import (
	"fmt"
	"math"

	"cliquelect/internal/ids"
	"cliquelect/internal/portmap"
	"cliquelect/internal/proto"
	"cliquelect/internal/simsync"
	"cliquelect/internal/trace"
	"cliquelect/internal/xrand"
)

// ComponentRound is one round's view of the communication graph under the
// adversarial wiring. MaxComponent is measured after the round's sends,
// i.e. on G_{r+1} in the paper's notation, whose Lemma 3.9 cap is
// 2^{sigma_{r+1}}.
type ComponentRound struct {
	Round        int
	Messages     int64
	NewEdges     int
	MaxComponent int
	Cap          int
}

// ComponentGameResult records one play of the Theorem 3.8 adversary game.
type ComponentGameResult struct {
	N int
	// F is the message budget parameter f(n): Theorem 3.8 concerns
	// algorithms sending at most n·f(n) messages.
	F float64
	// SigmaBase is ceil(log2 f)+1: block sizes grow as 2^{SigmaBase·(r-1)}.
	SigmaBase int
	// Rounds holds per-round observations (index 0 unused).
	Rounds []ComponentRound
	// PredictedRounds is Theorem 3.8's round lower bound for this budget:
	// (log2(n)-1)/(log2(f)+1) + 1.
	PredictedRounds float64
	// CapViolatedAt is the first round whose post-round max component
	// exceeded the Lemma 3.9 cap (0 = never). Under the adversary's wiring
	// this can only happen once some block overspends its per-round message
	// allowance (at which point the real Lemma 3.9 adversary would have
	// pruned the ID assignment, which a single execution cannot do).
	CapViolatedAt int
	// BudgetExceededAt is the first round in which the per-block message
	// load exceeded mu_{r+1} = 2^{sigma_r}·(2f-1) (0 = never).
	BudgetExceededAt int
	// Result holds the underlying execution's measurements.
	Result *simsync.Result
}

// StalledRounds returns the number of leading rounds in which the adversary
// kept every component at or below its cap — the empirical round lower
// bound exhibited by the game.
func (r *ComponentGameResult) StalledRounds() int {
	if r.CapViolatedAt == 0 {
		return len(r.Rounds) - 1
	}
	return r.CapViolatedAt - 1
}

// roundTap wraps a protocol to observe round boundaries: the adversary's
// chooser needs the current round, and the game snapshots component growth
// whenever a new round's send phase begins.
type roundTap struct {
	inner   simsync.Protocol
	onRound func(r int)
}

func (rt *roundTap) Init(env proto.Env) { rt.inner.Init(env) }

func (rt *roundTap) Send(round int) []proto.Send {
	rt.onRound(round)
	return rt.inner.Send(round)
}

func (rt *roundTap) Deliver(round int, inbox []proto.Delivery) {
	rt.inner.Deliver(round, inbox)
}

func (rt *roundTap) Decision() proto.Decision { return rt.inner.Decision() }
func (rt *roundTap) Halted() bool             { return rt.inner.Halted() }

var _ simsync.Protocol = (*roundTap)(nil)

// GameOption configures a ComponentGame (ablations).
type GameOption func(*gameOpts)

type gameOpts struct {
	uniformArrivals bool
}

// WithUniformArrivals disables the adversary's low-port arrival wiring —
// arrival ports are drawn uniformly instead, as a non-adaptive adversary
// would. This is the ablation of the Lemma 3.3 insight that the adversary
// controls *both* endpoints of an unused link: without it, a deterministic
// algorithm's low-port sends cannot reuse inbound links, blocks saturate,
// and the component caps break almost immediately.
func WithUniformArrivals() GameOption {
	return func(o *gameOpts) { o.uniformArrivals = true }
}

// ComponentGame plays the Lemma 3.9 adversary against a deterministic
// synchronous algorithm under simultaneous wake-up.
//
// The adversary maintains a decomposition of the nodes into contiguous
// blocks of size 2^{sigma_r}. Whenever a node opens an unused port in round
// r, the wiring strategy directs the message inside the node's round-(r+1)
// block (the group of round-r blocks being merged, exactly Lemma 3.9's
// redirection of newly opened ports into the sibling blocks); messages over
// used ports stay within the sender's component automatically. Components
// therefore cannot outgrow the blocks, and by Corollary 3.7's majority
// argument the algorithm cannot terminate while all components have size
// <= n/2: the game measures how many rounds the adversary provably stalls
// the algorithm for a given message budget n·f.
//
// n must be a power of two (as in Theorem 3.8) and f > 1.
func ComponentGame(n int, f float64, factory simsync.Factory, seed uint64, opts ...GameOption) (*ComponentGameResult, error) {
	var o gameOpts
	for _, opt := range opts {
		opt(&o)
	}
	if n < 4 || n&(n-1) != 0 {
		return nil, fmt.Errorf("lowerbound: n = %d must be a power of two >= 4", n)
	}
	if f <= 1 {
		return nil, fmt.Errorf("lowerbound: f = %v must exceed 1", f)
	}
	sigmaBase := int(math.Ceil(math.Log2(f-1e-12))) + 1
	rng := xrand.New(seed)

	// blockSize returns 2^{sigma_r} capped at n.
	blockSize := func(r int) int {
		if r < 1 {
			return 1
		}
		shift := sigmaBase * (r - 1)
		if shift > 62 || 1<<uint(shift) >= n {
			return n
		}
		return 1 << uint(shift)
	}

	rec := trace.NewRecorder(n)
	curRound := 1
	snaps := make(map[int]int) // round -> MaxComponent after that round

	var adaptive *portmap.Adaptive
	chooser := func(u, p int) int {
		bs := blockSize(curRound + 1)
		base := (u / bs) * bs
		// A few random probes for spread, then an exhaustive scan: the
		// adversary must never leak a wire out of the block while any
		// in-block target is feasible, or components would merge across
		// blocks prematurely.
		for try := 0; try < 8; try++ {
			v := base + rng.Intn(bs)
			if v != u && !adaptive.Connected(u, v) {
				return v
			}
		}
		start := rng.Intn(bs)
		for i := 0; i < bs; i++ {
			v := base + (start+i)%bs
			if v != u && !adaptive.Connected(u, v) {
				return v
			}
		}
		return -1 // block truly saturated: engine falls back globally
	}
	adaptive = portmap.NewAdaptive(n, chooser, rng.Split())
	if !o.uniformArrivals {
		// Arrival ports fill from the bottom: deterministic algorithms send
		// over their lowest ports first, so low-port arrivals make future
		// sends reuse the in-block links the adversary already built (Lemma
		// 3.3 gives the adversary both endpoints of every unused link).
		adaptive.SetArrivalChooser(func(v int) int {
			for q := 0; q < n-1; q++ {
				if !adaptive.Wired(v, q) {
					return q
				}
			}
			return -1
		})
	}

	onRound := func(r int) {
		for rr := curRound; rr < r; rr++ {
			snaps[rr] = rec.MaxComponent()
		}
		if r > curRound {
			curRound = r
		}
	}

	assign := ids.Random(ids.LogUniverse(n), n, rng.Split())
	res, err := simsync.Run(simsync.Config{
		N: n, IDs: assign, Ports: adaptive, Seed: rng.Uint64(),
		Trace: rec, Strict: true,
	}, simsync.Wrap(factory, func(t *roundTap, _ int, p simsync.Protocol) {
		*t = roundTap{inner: p, onRound: onRound}
	}))
	if err != nil {
		return nil, err
	}
	for rr := curRound; rr <= res.Rounds; rr++ {
		snaps[rr] = rec.MaxComponent()
	}

	out := &ComponentGameResult{
		N:               n,
		F:               f,
		SigmaBase:       sigmaBase,
		PredictedRounds: (math.Log2(float64(n))-1)/(math.Log2(f)+1) + 1,
		Result:          res,
		Rounds:          []ComponentRound{{}},
	}
	for r := 1; r <= res.Rounds; r++ {
		cr := ComponentRound{
			Round:        r,
			Messages:     res.PerRound[r],
			NewEdges:     rec.RoundEdges(r),
			MaxComponent: snaps[r],
			Cap:          blockSize(r + 1),
		}
		out.Rounds = append(out.Rounds, cr)
		if cr.MaxComponent > cr.Cap && out.CapViolatedAt == 0 {
			out.CapViolatedAt = r
		}
		blocks := n / blockSize(r)
		if blocks > 0 {
			perBlock := float64(res.PerRound[r]) / float64(blocks)
			mu := float64(blockSize(r)) * (2*f - 1)
			if perBlock > mu && out.BudgetExceededAt == 0 {
				out.BudgetExceededAt = r
			}
		}
	}
	return out, nil
}
