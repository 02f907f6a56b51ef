package lowerbound

import (
	"math"
	"testing"

	"cliquelect/internal/core"
	"cliquelect/internal/ids"
	"cliquelect/internal/portmap"
	"cliquelect/internal/proto"
	"cliquelect/internal/simsync"
	"cliquelect/internal/xrand"
)

// --- ComponentGame (Theorem 3.8 / Lemma 3.9) ---

func TestComponentGameRejectsBadArgs(t *testing.T) {
	f := core.NewTradeoff(3)
	if _, err := ComponentGame(100, 2, f, 1); err == nil {
		t.Fatal("non-power-of-two n accepted")
	}
	if _, err := ComponentGame(64, 1, f, 1); err == nil {
		t.Fatal("f=1 accepted")
	}
}

func TestComponentGameStallsTradeoff(t *testing.T) {
	// Play the game at the algorithm's own budget: first measure its actual
	// f = messages/n, then verify the adversary keeps every component within
	// the Lemma 3.9 caps until the algorithm overspends some block's
	// allowance (which the full-fan-out final round always does).
	const n = 256
	for _, k := range []int{3, 4} {
		assign := ids.Random(ids.LogUniverse(n), n, xrand.New(uint64(k)))
		plain, err := simsync.Run(simsync.Config{N: n, IDs: assign, Seed: 1}, core.NewTradeoff(k))
		if err != nil {
			t.Fatal(err)
		}
		f := float64(plain.Messages) / float64(n)
		res, err := ComponentGame(n, f, core.NewTradeoff(k), 42)
		if err != nil {
			t.Fatal(err)
		}
		if res.StalledRounds() < 1 {
			t.Fatalf("k=%d f=%.1f: adversary stalled 0 rounds (capViolated=%d budget=%d)",
				k, f, res.CapViolatedAt, res.BudgetExceededAt)
		}
		for _, cr := range res.Rounds[1:] {
			if res.BudgetExceededAt != 0 && cr.Round >= res.BudgetExceededAt {
				break // past budget: caps may legitimately break
			}
			if cr.MaxComponent > cr.Cap {
				t.Fatalf("k=%d round %d: component %d exceeds cap %d before budget was exceeded",
					k, cr.Round, cr.MaxComponent, cr.Cap)
			}
		}
	}
}

func TestComponentGameTheoremConsistency(t *testing.T) {
	// Theorem 3.8 consistency check on the real algorithm: with measured
	// message complexity n·f_actual, the round count must satisfy
	// T >= (log2(n)-1)/(log2(f_actual)+1) + 1 (up to the theorem's
	// power-of-two slack of one round).
	for _, k := range []int{3, 4, 5} {
		const n = 1024
		assign := ids.Random(ids.LogUniverse(n), n, xrand.New(uint64(k)))
		run, err := simsync.Run(simsync.Config{N: n, IDs: assign, Seed: 5}, core.NewTradeoff(k))
		if err != nil {
			t.Fatal(err)
		}
		fActual := float64(run.Messages) / float64(n)
		if fActual <= 1 {
			t.Fatalf("k=%d: degenerate f", k)
		}
		game := &ComponentGameResult{}
		_ = game
		predicted := (log2(float64(n))-1)/(log2(fActual)+1) + 1
		if float64(run.Rounds)+1 < predicted {
			t.Fatalf("k=%d: rounds %d below theorem floor %.2f at f=%.1f",
				k, run.Rounds, predicted, fActual)
		}
	}
}

// profligate broadcasts to everyone in round 1: the budget check must trip
// immediately for small f.
func TestComponentGameFlagsOverspender(t *testing.T) {
	broadcast := func(int) simsync.Protocol { return &broadcastAll{} }
	res, err := ComponentGame(64, 2, broadcast, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.BudgetExceededAt != 1 {
		t.Fatalf("budget exceeded at %d, want 1", res.BudgetExceededAt)
	}
}

type broadcastAll struct {
	env    proto.Env
	dec    proto.Decision
	halted bool
}

func (b *broadcastAll) Init(env proto.Env) { b.env = env }

func (b *broadcastAll) Send(round int) []proto.Send {
	if round != 1 {
		return nil
	}
	return b.env.Out.First(b.env.Ports(), proto.Message{Kind: 1, A: b.env.ID})
}

func (b *broadcastAll) Deliver(round int, inbox []proto.Delivery) {
	best := b.env.ID
	for _, d := range inbox {
		if d.Msg.A > best {
			best = d.Msg.A
		}
	}
	if best == b.env.ID {
		b.dec = proto.Leader
	} else {
		b.dec = proto.NonLeader
	}
	b.halted = true
}

func (b *broadcastAll) Decision() proto.Decision { return b.dec }
func (b *broadcastAll) Halted() bool             { return b.halted }

func TestComponentGamePredictedRounds(t *testing.T) {
	res, err := ComponentGame(1024, 2, core.NewTradeoff(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	// (log2(1024)-1)/(log2(2)+1)+1 = 9/2+1 = 5.5.
	if res.PredictedRounds < 5.4 || res.PredictedRounds > 5.6 {
		t.Fatalf("predicted = %v", res.PredictedRounds)
	}
}

// --- SingleSend (Lemma 3.12) ---

func TestSingleSendEquivalence(t *testing.T) {
	// On a fixed (oblivious) port mapping, the transform must elect the
	// same leader with exactly the same message count, in <= n·T rounds.
	const n = 32
	assign := ids.Random(ids.LogUniverse(n), n, xrand.New(13))
	cases := map[string]simsync.Factory{
		"tradeoff-k3":  core.NewTradeoff(3),
		"tradeoff-k4":  core.NewTradeoff(4),
		"afekgafni-k2": core.NewAfekGafni(2),
		"smallid":      nil, // filled below with the right universe
	}
	smallAssign := ids.Random(ids.LinearUniverse(n, 2), n, xrand.New(14))
	cases["smallid"] = core.NewSmallID(4, 2)

	for name, factory := range cases {
		a := assign
		if name == "smallid" {
			a = smallAssign
		}
		direct, err := simsync.Run(simsync.Config{
			N: n, IDs: a, Ports: portmap.NewSharedPerm(n, xrand.New(99)), Seed: 1,
		}, factory)
		if err != nil {
			t.Fatalf("%s direct: %v", name, err)
		}
		wrapped, err := simsync.Run(simsync.Config{
			N: n, IDs: a, Ports: portmap.NewSharedPerm(n, xrand.New(99)), Seed: 1,
			MaxRounds: n * (direct.Rounds + 2),
		}, NewSingleSend(factory))
		if err != nil {
			t.Fatalf("%s wrapped: %v", name, err)
		}
		if wrapped.TimedOut {
			t.Fatalf("%s: wrapped run timed out", name)
		}
		if direct.UniqueLeader() != wrapped.UniqueLeader() {
			t.Fatalf("%s: leaders differ: %d vs %d", name, direct.UniqueLeader(), wrapped.UniqueLeader())
		}
		if direct.Messages != wrapped.Messages {
			t.Fatalf("%s: messages differ: %d vs %d", name, direct.Messages, wrapped.Messages)
		}
		if wrapped.Rounds > n*direct.Rounds {
			t.Fatalf("%s: wrapped rounds %d exceed n·T = %d", name, wrapped.Rounds, n*direct.Rounds)
		}
	}
}

func TestSingleSendIsSingleSend(t *testing.T) {
	// No node may send more than one message per engine round.
	const n = 16
	assign := ids.Random(ids.LogUniverse(n), n, xrand.New(3))
	perRound := make(map[int]map[int]int) // round -> node -> sends
	factory := core.NewTradeoff(3)
	counting := func(node int) simsync.Protocol {
		return &sendCounter{inner: NewSingleSend(factory)(node), node: node, perRound: perRound}
	}
	if _, err := simsync.Run(simsync.Config{
		N: n, IDs: assign, Ports: portmap.NewCanonical(n), Seed: 1,
		MaxRounds: 16 * n,
	}, counting); err != nil {
		t.Fatal(err)
	}
	for round, nodes := range perRound {
		for node, c := range nodes {
			if c > 1 {
				t.Fatalf("round %d node %d sent %d messages", round, node, c)
			}
		}
	}
}

type sendCounter struct {
	inner    simsync.Protocol
	node     int
	perRound map[int]map[int]int
}

func (sc *sendCounter) Init(env proto.Env) { sc.inner.Init(env) }

func (sc *sendCounter) Send(round int) []proto.Send {
	out := sc.inner.Send(round)
	if len(out) > 0 {
		if sc.perRound[round] == nil {
			sc.perRound[round] = make(map[int]int)
		}
		sc.perRound[round][sc.node] += len(out)
	}
	return out
}

func (sc *sendCounter) Deliver(round int, inbox []proto.Delivery) { sc.inner.Deliver(round, inbox) }
func (sc *sendCounter) Decision() proto.Decision                  { return sc.inner.Decision() }
func (sc *sendCounter) Halted() bool                              { return sc.inner.Halted() }

// --- CheckLasVegas (Theorem 3.16) ---

func TestCheckLasVegasCatchesCheater(t *testing.T) {
	rep, err := CheckLasVegas(64, 300, NewCheatingLasVegas(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatalf("cheating algorithm passed the audit: %+v", rep)
	}
	if rep.MeanMessages >= float64(rep.N) {
		t.Fatalf("cheater is supposed to be sublinear, sent %.1f", rep.MeanMessages)
	}
}

func TestCheckLasVegasPassesHonestAlgorithm(t *testing.T) {
	rep, err := CheckLasVegas(64, 120, core.NewLasVegas(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("honest Las Vegas flagged: %+v", rep)
	}
	if rep.ZeroLeader+rep.MultiLeader != 0 {
		t.Fatalf("honest Las Vegas failed %d+%d times", rep.ZeroLeader, rep.MultiLeader)
	}
	// The Omega(n) bound in action: the honest algorithm pays at least the
	// announcement, n-1 messages.
	if rep.MeanMessages < float64(rep.N-1) {
		t.Fatalf("honest Las Vegas sent only %.1f messages", rep.MeanMessages)
	}
}

func TestCheckLasVegasArgs(t *testing.T) {
	if _, err := CheckLasVegas(63, 10, core.NewLasVegas(), 1); err == nil {
		t.Fatal("odd n accepted")
	}
}

// --- WakeupGame (Theorem 4.2) ---

func TestWakeupGameTradeoffShape(t *testing.T) {
	res, err := WakeupGame(256, 40, []float64{0.25, 1, 3}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	lo, mid, hi := res.Points[0], res.Points[1], res.Points[2]
	if lo.WakeFailRate < 0.9 {
		t.Fatalf("tiny fan-out should fail to wake: rate %.2f", lo.WakeFailRate)
	}
	if hi.WakeFailRate > 0.2 {
		t.Fatalf("large fan-out should wake everyone: rate %.2f", hi.WakeFailRate)
	}
	if !(lo.MeanMessages < mid.MeanMessages && mid.MeanMessages < hi.MeanMessages) {
		t.Fatal("message counts not increasing in beta")
	}
	// Reliable wake-up costs a constant fraction of the n^{3/2} envelope.
	if hi.MeanMessages < res.Envelope/8 {
		t.Fatalf("reliable point spends %.0f, suspiciously below envelope %.0f",
			hi.MeanMessages, res.Envelope)
	}
}

func TestWakeupGameArgs(t *testing.T) {
	if _, err := WakeupGame(2, 1, []float64{1}, 1); err == nil {
		t.Fatal("tiny n accepted")
	}
	if _, err := WakeupGame(64, 0, []float64{1}, 1); err == nil {
		t.Fatal("zero trials accepted")
	}
}

func log2(x float64) float64 { return math.Log2(x) }

// TestComponentGameArrivalAblation verifies the design choice documented in
// ARCHITECTURE.md, Substitutions: the adversary must control arrival ports
// (Lemma 3.3 gives it both endpoints). With uniform arrivals, a fan-out
// equal to blockSize-1 cannot be contained and the caps break in round 1;
// with low-port arrivals the same configuration is contained.
func TestComponentGameArrivalAblation(t *testing.T) {
	// f=3 -> sigmaBase=3 -> round-2 blocks of 8; Tradeoff(4) at n=256 sends
	// ceil(256^{1/3}) = 7 = blockSize-1 messages per node in round 1.
	const n, f = 256, 3.0
	withChooser, err := ComponentGame(n, f, core.NewTradeoff(4), 5)
	if err != nil {
		t.Fatal(err)
	}
	without, err := ComponentGame(n, f, core.NewTradeoff(4), 5, WithUniformArrivals())
	if err != nil {
		t.Fatal(err)
	}
	if got := withChooser.Rounds[1].MaxComponent; got > 8 {
		t.Fatalf("low-port arrivals: round-1 component %d > 8", got)
	}
	if got := without.Rounds[1].MaxComponent; got <= 8 {
		t.Fatalf("uniform arrivals unexpectedly contained round 1 (component %d)", got)
	}
}
