package simsync

import (
	"reflect"
	"testing"

	"cliquelect/internal/faults"
	"cliquelect/internal/ids"
	"cliquelect/internal/portmap"
	"cliquelect/internal/proto"
	"cliquelect/internal/trace"
	"cliquelect/internal/xrand"
)

// maxBroadcast is a one-round test protocol: broadcast own ID, the node that
// sees no larger ID becomes leader.
type maxBroadcast struct {
	env    proto.Env
	dec    proto.Decision
	halted bool
}

func (p *maxBroadcast) Init(env proto.Env) { p.env = env }

func (p *maxBroadcast) Send(round int) []proto.Send {
	if round != 1 {
		return nil
	}
	out := make([]proto.Send, p.env.Ports())
	for i := range out {
		out[i] = proto.Send{Port: i, Msg: proto.Message{Kind: 1, A: p.env.ID}}
	}
	return out
}

func (p *maxBroadcast) Deliver(round int, inbox []proto.Delivery) {
	if round != 1 {
		return
	}
	best := p.env.ID
	for _, d := range inbox {
		if d.Msg.A > best {
			best = d.Msg.A
		}
	}
	if best == p.env.ID {
		p.dec = proto.Leader
	} else {
		p.dec = proto.NonLeader
	}
	p.halted = true
}

func (p *maxBroadcast) Decision() proto.Decision { return p.dec }
func (p *maxBroadcast) Halted() bool             { return p.halted }

func TestMaxBroadcastElectsMaxID(t *testing.T) {
	for _, n := range []int{2, 3, 5, 16, 64} {
		assign := ids.Random(ids.LogUniverse(n), n, xrand.New(uint64(n)))
		res, err := Run(Config{N: n, IDs: assign, Seed: 42, Strict: true},
			func(int) Protocol { return &maxBroadcast{} })
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(); err != nil {
			t.Fatal(err)
		}
		leader := res.UniqueLeader()
		if assign[leader] != assign.Max() {
			t.Fatalf("n=%d: leader ID %d, want max %d", n, assign[leader], assign.Max())
		}
		if res.Rounds != 1 {
			t.Fatalf("n=%d: rounds = %d, want 1", n, res.Rounds)
		}
		if want := int64(n * (n - 1)); res.Messages != want {
			t.Fatalf("n=%d: messages = %d, want %d", n, res.Messages, want)
		}
		if res.Words != res.Messages*3 {
			t.Fatalf("words = %d", res.Words)
		}
		if res.PerRound[1] != res.Messages {
			t.Fatalf("per-round = %v", res.PerRound)
		}
	}
}

func TestMaxBroadcastAllPortMaps(t *testing.T) {
	const n = 12
	assign := ids.Sequential(ids.LinearUniverse(n, 1), n)
	maps := map[string]portmap.Map{
		"canonical":  portmap.NewCanonical(n),
		"sharedperm": portmap.NewSharedPerm(n, xrand.New(1)),
		"lazyrandom": portmap.NewLazyRandom(n, xrand.New(2)),
	}
	for name, pm := range maps {
		res, err := Run(Config{N: n, IDs: assign, Ports: pm, Strict: true},
			func(int) Protocol { return &maxBroadcast{} })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := res.UniqueLeader(); got != n-1 {
			t.Fatalf("%s: leader %d, want %d", name, got, n-1)
		}
	}
}

// pingPong checks that replying on the arrival port routes back to the
// original sender: the min-ID node pings over port 0, the receiver pongs
// back, and only the initiator must see the pong.
type pingPong struct {
	env      proto.Env
	initiate bool
	pongPort int // arrival port to answer on; -1 if none
	gotPong  bool
	dec      proto.Decision
	halted   bool
}

func (p *pingPong) Init(env proto.Env) {
	p.env = env
	p.initiate = env.ID == 1 // min ID in a sequential assignment
	p.pongPort = -1
}

func (p *pingPong) Send(round int) []proto.Send {
	switch {
	case round == 1 && p.initiate:
		return []proto.Send{{Port: 0, Msg: proto.Message{Kind: 1, A: p.env.ID}}}
	case round == 2 && p.pongPort >= 0:
		return []proto.Send{{Port: p.pongPort, Msg: proto.Message{Kind: 2, A: p.env.ID}}}
	}
	return nil
}

func (p *pingPong) Deliver(round int, inbox []proto.Delivery) {
	for _, d := range inbox {
		switch d.Msg.Kind {
		case 1:
			p.pongPort = d.Port
		case 2:
			p.gotPong = true
		}
	}
	if round == 2 {
		if p.initiate && p.gotPong {
			p.dec = proto.Leader
		} else {
			p.dec = proto.NonLeader
		}
		p.halted = true
	}
}

func (p *pingPong) Decision() proto.Decision { return p.dec }
func (p *pingPong) Halted() bool             { return p.halted }

func TestReplyPortRoutesBack(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		const n = 9
		assign := ids.Sequential(ids.LinearUniverse(n, 1), n)
		res, err := Run(Config{N: n, IDs: assign, Seed: seed, Strict: true},
			func(int) Protocol { return &pingPong{} })
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := res.UniqueLeader(); assign[got] != 1 {
			t.Fatalf("seed %d: pong went to node with ID %d", seed, assign[got])
		}
		if res.Messages != 2 || res.Rounds != 2 {
			t.Fatalf("msgs=%d rounds=%d", res.Messages, res.Rounds)
		}
	}
}

// wakeChain tests adversarial wake-up semantics: the root (adversary-woken)
// sends one message in round 1; the woken child broadcasts in the round
// after it wakes; everyone decides on hearing the broadcast.
type wakeChain struct {
	env       proto.Env
	isRoot    bool
	sawSend   bool
	wokeRound int // round this node was message-woken, 0 for root
	dec       proto.Decision
	halted    bool
}

func (p *wakeChain) Init(env proto.Env) { p.env = env }

func (p *wakeChain) Send(round int) []proto.Send {
	if !p.sawSend {
		p.sawSend = true
		if p.wokeRound == 0 {
			p.isRoot = true // first callback was Send: adversary-woken
		}
	}
	if p.isRoot && round == 1 {
		return []proto.Send{{Port: 0, Msg: proto.Message{Kind: 1}}}
	}
	if !p.isRoot && round == p.wokeRound+1 {
		out := make([]proto.Send, p.env.Ports())
		for i := range out {
			out[i] = proto.Send{Port: i, Msg: proto.Message{Kind: 2, A: p.env.ID}}
		}
		return out
	}
	return nil
}

func (p *wakeChain) Deliver(round int, inbox []proto.Delivery) {
	if !p.sawSend && p.wokeRound == 0 {
		p.wokeRound = round // first callback was Deliver: message-woken
	}
	for _, d := range inbox {
		if d.Msg.Kind == 2 {
			if p.env.ID == d.Msg.A {
				p.dec = proto.Leader
			} else {
				p.dec = proto.NonLeader
			}
			p.halted = true
			return
		}
	}
	// The broadcaster itself never hears its own broadcast; it halts one
	// round after broadcasting.
	if !p.isRoot && p.wokeRound > 0 && round == p.wokeRound+1 {
		p.dec = proto.Leader
		p.halted = true
	}
}

func (p *wakeChain) Decision() proto.Decision { return p.dec }
func (p *wakeChain) Halted() bool             { return p.halted }

func TestAdversarialWakeSemantics(t *testing.T) {
	const n = 8
	assign := ids.Sequential(ids.LinearUniverse(n, 1), n)
	res, err := Run(Config{
		N: n, IDs: assign, Seed: 5, Strict: true,
		Wake: []int{3},
	}, func(int) Protocol { return &wakeChain{} })
	if err != nil {
		t.Fatal(err)
	}
	if res.WakeRound[3] != 1 {
		t.Fatalf("root wake round = %d", res.WakeRound[3])
	}
	// The child woken in round 1 broadcasts in round 2, waking all others.
	woken1, woken2 := 0, 0
	for u, w := range res.WakeRound {
		switch w {
		case 1:
			woken1++
		case 2:
			woken2++
		default:
			t.Fatalf("node %d woke in round %d", u, w)
		}
	}
	if woken1 != 2 || woken2 != n-2 {
		t.Fatalf("wake profile: round1=%d round2=%d", woken1, woken2)
	}
	if !res.AllAwake() {
		t.Fatal("not all awake")
	}
	if res.Messages != int64(1+n-1) {
		t.Fatalf("messages = %d", res.Messages)
	}
	if got := len(res.Leaders()); got != 1 {
		t.Fatalf("leaders = %d", got)
	}
}

// silentCountdown never sends; it decides at round 3 purely from the
// per-round Deliver tick.
type silentCountdown struct {
	dec    proto.Decision
	halted bool
}

func (p *silentCountdown) Init(proto.Env)           {}
func (p *silentCountdown) Send(int) []proto.Send    { return nil }
func (p *silentCountdown) Decision() proto.Decision { return p.dec }
func (p *silentCountdown) Halted() bool             { return p.halted }

func (p *silentCountdown) Deliver(round int, _ []proto.Delivery) {
	if round == 3 {
		p.dec = proto.NonLeader
		p.halted = true
	}
}

func TestSilentRoundTick(t *testing.T) {
	const n = 4
	res, err := Run(Config{N: n, IDs: ids.Sequential(ids.LinearUniverse(n, 1), n), Strict: true},
		func(int) Protocol { return &silentCountdown{} })
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 0 {
		t.Fatalf("messages = %d", res.Messages)
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3 (decision round)", res.Rounds)
	}
	for _, d := range res.Decisions {
		if d != proto.NonLeader {
			t.Fatalf("decisions = %v", res.Decisions)
		}
	}
}

// doubleSender violates the one-message-per-port-per-round rule.
type doubleSender struct{ maxBroadcast }

func (p *doubleSender) Send(round int) []proto.Send {
	if round != 1 {
		return nil
	}
	return []proto.Send{
		{Port: 0, Msg: proto.Message{Kind: 1}},
		{Port: 0, Msg: proto.Message{Kind: 1}},
	}
}

func TestStrictCatchesDuplicatePort(t *testing.T) {
	const n = 4
	_, err := Run(Config{N: n, IDs: ids.Sequential(ids.LinearUniverse(n, 1), n), Strict: true},
		func(int) Protocol { return &doubleSender{} })
	if err == nil {
		t.Fatal("duplicate port send not caught")
	}
}

// badPort sends on an out-of-range port.
type badPort struct{ maxBroadcast }

func (p *badPort) Send(round int) []proto.Send {
	return []proto.Send{{Port: 1 << 20, Msg: proto.Message{}}}
}

func TestInvalidPortRejected(t *testing.T) {
	const n = 4
	_, err := Run(Config{N: n, IDs: ids.Sequential(ids.LinearUniverse(n, 1), n)},
		func(int) Protocol { return &badPort{} })
	if err == nil {
		t.Fatal("invalid port not caught")
	}
}

// neverHalts runs forever.
type neverHalts struct{ maxBroadcast }

func (p *neverHalts) Deliver(int, []proto.Delivery) {}
func (p *neverHalts) Halted() bool                  { return false }

func TestTimeout(t *testing.T) {
	const n = 4
	res, err := Run(Config{
		N: n, IDs: ids.Sequential(ids.LinearUniverse(n, 1), n), MaxRounds: 10,
	}, func(int) Protocol { return &neverHalts{} })
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Fatal("expected timeout")
	}
	if err := res.Validate(); err == nil {
		t.Fatal("Validate must fail on timeout")
	}
}

// coinBroadcast is a randomized protocol used to verify determinism: each
// node broadcasts with probability 1/2 and leaders are nodes that sent and
// saw no higher sender ID.
type coinBroadcast struct {
	env    proto.Env
	sends  bool
	dec    proto.Decision
	halted bool
}

func (p *coinBroadcast) Init(env proto.Env) {
	p.env = env
	p.sends = env.RNG.Bernoulli(0.5)
}

func (p *coinBroadcast) Send(round int) []proto.Send {
	if round != 1 || !p.sends {
		return nil
	}
	out := make([]proto.Send, p.env.Ports())
	for i := range out {
		out[i] = proto.Send{Port: i, Msg: proto.Message{Kind: 1, A: p.env.ID}}
	}
	return out
}

func (p *coinBroadcast) Deliver(round int, inbox []proto.Delivery) {
	best := int64(-1)
	if p.sends {
		best = p.env.ID
	}
	for _, d := range inbox {
		if d.Msg.A > best {
			best = d.Msg.A
		}
	}
	if p.sends && best == p.env.ID {
		p.dec = proto.Leader
	} else {
		p.dec = proto.NonLeader
	}
	p.halted = true
}

func (p *coinBroadcast) Decision() proto.Decision { return p.dec }
func (p *coinBroadcast) Halted() bool             { return p.halted }

func TestSeedDeterminism(t *testing.T) {
	const n = 32
	assign := ids.Random(ids.LogUniverse(n), n, xrand.New(7))
	run := func() *Result {
		res, err := Run(Config{N: n, IDs: assign, Seed: 99},
			func(int) Protocol { return &coinBroadcast{} })
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Messages != b.Messages || a.Rounds != b.Rounds {
		t.Fatalf("runs diverged: %d/%d vs %d/%d", a.Messages, a.Rounds, b.Messages, b.Rounds)
	}
	for u := range a.Decisions {
		if a.Decisions[u] != b.Decisions[u] {
			t.Fatalf("node %d decisions diverged", u)
		}
	}
}

func TestTraceRecordsGraph(t *testing.T) {
	const n = 8
	rec := trace.NewRecorder(n)
	_, err := Run(Config{
		N: n, IDs: ids.Sequential(ids.LinearUniverse(n, 1), n), Trace: rec, Strict: true,
	}, func(int) Protocol { return &maxBroadcast{} })
	if err != nil {
		t.Fatal(err)
	}
	if rec.MaxComponent() != n {
		t.Fatalf("max component = %d, want %d", rec.MaxComponent(), n)
	}
	// Every node broadcast to all n-1 others, but a port is "opened" only on
	// its first use in either direction, so opens = number of directed first
	// uses = n(n-1) minus the reverse uses = n(n-1)/2 ... each unordered link
	// carries two sends; only the first counts as an open per endpoint pair.
	// With simultaneous broadcast all sends happen in round 1; within the
	// round, sends are processed in node order, so exactly one direction of
	// each link is an "open".
	if got, want := rec.TotalPortOpens(), n*(n-1)/2; got != want {
		t.Fatalf("port opens = %d, want %d", got, want)
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := Run(Config{N: 0}, func(int) Protocol { return &maxBroadcast{} }); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := Run(Config{N: 3, IDs: ids.Assignment{1}}, func(int) Protocol { return &maxBroadcast{} }); err == nil {
		t.Fatal("ID length mismatch accepted")
	}
	if _, err := Run(Config{
		N: 3, IDs: ids.Assignment{1, 2, 3}, Wake: []int{},
	}, func(int) Protocol { return &maxBroadcast{} }); err == nil {
		t.Fatal("empty wake set accepted")
	}
	if _, err := Run(Config{
		N: 3, IDs: ids.Assignment{1, 2, 3}, Wake: []int{9},
	}, func(int) Protocol { return &maxBroadcast{} }); err == nil {
		t.Fatal("invalid wake node accepted")
	}
}

// --- fault injection hooks ---

func faultInjector(t *testing.T, plan faults.Plan, n int, seed uint64) *faults.Injector {
	t.Helper()
	inj, err := faults.NewInjector(plan, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestFaultsCrashVictimExcluded crashes the would-be winner at round 1: it
// must send nothing, the survivors elect the runner-up, and Validate accepts
// the election restricted to survivors.
func TestFaultsCrashVictimExcluded(t *testing.T) {
	const n = 8
	assign := ids.Sequential(ids.LinearUniverse(n, 1), n)
	victim := n - 1 // sequential IDs: the max-ID node
	res, err := Run(Config{
		N: n, IDs: assign, Seed: 5, Strict: true,
		Faults: faultInjector(t, faults.Plan{Crashes: []faults.Crash{{Node: victim, At: 1}}}, n, 9),
	}, func(int) Protocol { return &maxBroadcast{} })
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Crashed; len(got) != 1 || got[0] != victim {
		t.Fatalf("Crashed = %v, want [%d]", got, victim)
	}
	if err := res.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := res.UniqueLeader(); got != victim-1 {
		t.Fatalf("leader = %d, want runner-up %d", got, victim-1)
	}
	if res.Decisions[victim] != proto.Undecided {
		t.Fatalf("crashed node decided %v", res.Decisions[victim])
	}
}

// TestFaultsDropAll loses every message: each node sees only itself, so all
// claim leadership and validation fails with n surviving leaders.
func TestFaultsDropAll(t *testing.T) {
	const n = 6
	assign := ids.Sequential(ids.LinearUniverse(n, 1), n)
	res, err := Run(Config{
		N: n, IDs: assign, Seed: 5,
		Faults: faultInjector(t, faults.Plan{DropRate: 1}, n, 9),
	}, func(int) Protocol { return &maxBroadcast{} })
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != res.Messages || res.Dropped == 0 {
		t.Fatalf("Dropped = %d, Messages = %d", res.Dropped, res.Messages)
	}
	if got := len(res.Leaders()); got != n {
		t.Fatalf("%d leaders, want %d", got, n)
	}
	if err := res.Validate(); err == nil {
		t.Fatal("Validate accepted an n-leader run")
	}
}

// TestFaultsDuplicateIdempotent duplicates every delivery; maxBroadcast is
// idempotent, so the election still succeeds and the counter matches.
func TestFaultsDuplicateIdempotent(t *testing.T) {
	const n = 6
	assign := ids.Sequential(ids.LinearUniverse(n, 1), n)
	res, err := Run(Config{
		N: n, IDs: assign, Seed: 5,
		Faults: faultInjector(t, faults.Plan{DupRate: 1}, n, 9),
	}, func(int) Protocol { return &maxBroadcast{} })
	if err != nil {
		t.Fatal(err)
	}
	if res.Duplicated != res.Messages {
		t.Fatalf("Duplicated = %d, want %d", res.Duplicated, res.Messages)
	}
	if err := res.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestFaultsZeroPlanIdentical runs the same execution with no injector and
// with a zero-plan injector: the results must be deeply identical (the
// injector consumes no engine randomness).
func TestFaultsZeroPlanIdentical(t *testing.T) {
	const n = 16
	assign := ids.Random(ids.LogUniverse(n), n, xrand.New(7))
	factory := func(int) Protocol { return &maxBroadcast{} }
	plain, err := Run(Config{N: n, IDs: assign, Seed: 42}, factory)
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := Run(Config{
		N: n, IDs: assign, Seed: 42,
		Faults: faultInjector(t, faults.Plan{}, n, 1234),
	}, factory)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, faulted) {
		t.Fatalf("zero-plan run diverged:\nplain   %+v\nfaulted %+v", plain, faulted)
	}
}
