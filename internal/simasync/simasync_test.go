package simasync

import (
	"math"
	"reflect"
	"testing"

	"cliquelect/internal/faults"
	"cliquelect/internal/ids"
	"cliquelect/internal/proto"
	"cliquelect/internal/xrand"
)

// flooder relays a token once: on wake (adversary) it sends the token over
// port 0; every node that receives the token forwards it over ports 0..F-1
// the first time, then stays silent. Everyone decides NonLeader immediately
// so Validate-style checks don't apply; we use it to test mechanics.
type flooder struct {
	env   proto.Env
	fan   int
	sent  bool
	seen  int
	order []int64
	root  bool
}

func (f *flooder) Wake(env proto.Env) []proto.Send {
	f.env = env
	if f.root {
		f.sent = true
		return f.fanOut()
	}
	return nil
}

func (f *flooder) fanOut() []proto.Send {
	k := f.fan
	if k > f.env.Ports() {
		k = f.env.Ports()
	}
	out := make([]proto.Send, k)
	for i := range out {
		out[i] = proto.Send{Port: i, Msg: proto.Message{Kind: 1, A: f.env.ID}}
	}
	return out
}

func (f *flooder) Receive(d proto.Delivery) []proto.Send {
	f.seen++
	f.order = append(f.order, d.Msg.A)
	if !f.sent {
		f.sent = true
		return f.fanOut()
	}
	return nil
}

func (f *flooder) Decision() proto.Decision { return proto.NonLeader }

func TestChainMakespanUnitDelay(t *testing.T) {
	// fan=1 under unit delay: the token hops node to node; with a lazy
	// random map each hop goes to a fresh node until it revisits someone.
	// Every hop takes exactly 1 unit, so TimeUnits == Messages.
	const n = 16
	res, err := Run(Config{
		N: n, IDs: ids.Sequential(ids.LinearUniverse(n, 1), n),
		Wake: SubsetAtZero([]int{0}), Seed: 3,
	}, perNode(func(u int) Protocol { return &flooder{fan: 1, root: u == 0} }))
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages == 0 {
		t.Fatal("no messages")
	}
	if math.Abs(res.TimeUnits-float64(res.Messages)) > 1e-9 {
		t.Fatalf("TimeUnits = %v, Messages = %d", res.TimeUnits, res.Messages)
	}
}

func TestFloodWakesEveryone(t *testing.T) {
	const n = 32
	res, err := Run(Config{
		N: n, IDs: ids.Sequential(ids.LinearUniverse(n, 1), n),
		Wake: SubsetAtZero([]int{5}), Seed: 7,
	}, perNode(func(u int) Protocol { return &flooder{fan: n - 1, root: u == 5} }))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAwake() {
		t.Fatal("flood did not wake everyone")
	}
	if res.WakeTime[5] != 0 {
		t.Fatalf("root woke at %v", res.WakeTime[5])
	}
	// Direct flood: everyone else wakes at exactly 1 unit.
	for u, w := range res.WakeTime {
		if u != 5 && math.Abs(w-1) > 1e-9 {
			t.Fatalf("node %d woke at %v", u, w)
		}
	}
}

// seqSender sends two messages over the same port, the first scheduled slow
// and the second fast; FIFO must prevent overtaking.
type seqSender struct{ env proto.Env }

func (s *seqSender) Wake(env proto.Env) []proto.Send {
	s.env = env
	return []proto.Send{
		{Port: 0, Msg: proto.Message{Kind: 1, A: 111}},
		{Port: 0, Msg: proto.Message{Kind: 1, A: 222}},
	}
}

func (s *seqSender) Receive(proto.Delivery) []proto.Send { return nil }
func (s *seqSender) Decision() proto.Decision            { return proto.NonLeader }

// recorder stores arrival order.
type recorder struct{ order []int64 }

func (r *recorder) Wake(proto.Env) []proto.Send { return nil }
func (r *recorder) Receive(d proto.Delivery) []proto.Send {
	r.order = append(r.order, d.Msg.A)
	return nil
}
func (r *recorder) Decision() proto.Decision { return proto.NonLeader }

// shrinkingDelay gives the i-th scheduled message a strictly smaller delay
// than the previous one, tempting the engine to reorder.
type shrinkingDelay struct{ next float64 }

func (s *shrinkingDelay) Delay(int, int, uint8, float64, *xrand.RNG) float64 {
	s.next /= 2
	return s.next
}

func TestFIFOPreventsOvertaking(t *testing.T) {
	const n = 2
	recs := make([]*recorder, n)
	res, err := Run(Config{
		N: n, IDs: ids.Assignment{1, 2},
		Wake:   SubsetAtZero([]int{0}),
		Delays: &shrinkingDelay{next: 1},
		Seed:   1,
	}, perNode(func(u int) Protocol {
		if u == 0 {
			return &seqSender{}
		}
		recs[u] = &recorder{}
		return recs[u]
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 2 {
		t.Fatalf("messages = %d", res.Messages)
	}
	// But wait: n=2 has 1 port; both messages went to node 1.
	got := recs[1].order
	if len(got) != 2 || got[0] != 111 || got[1] != 222 {
		t.Fatalf("delivery order = %v, want [111 222]", got)
	}
}

func TestDelayClamping(t *testing.T) {
	// Delay > 1 clamps to 1; delay <= 0 or NaN clamps to a positive epsilon.
	for _, d := range []float64{5, -3, 0, math.NaN()} {
		d := d
		policy := delayFunc(func() float64 { return d })
		res, err := Run(Config{
			N: 2, IDs: ids.Assignment{1, 2},
			Wake:   SubsetAtZero([]int{0}),
			Delays: policy,
			Seed:   1,
		}, perNode(func(u int) Protocol {
			if u == 0 {
				return &seqSender{}
			}
			return &recorder{}
		}))
		if err != nil {
			t.Fatal(err)
		}
		if res.TimeUnits <= 0 || res.TimeUnits > 1+1e-9 {
			t.Fatalf("delay %v: TimeUnits = %v out of (0,1]", d, res.TimeUnits)
		}
	}
}

type delayFunc func() float64

func (f delayFunc) Delay(int, int, uint8, float64, *xrand.RNG) float64 { return f() }

func TestWakeBeforeReceive(t *testing.T) {
	// A message-woken node must see Wake before Receive of the waking
	// message.
	type wr struct {
		recorder
		wokeFirst bool
		woke      bool
	}
	nodes := make([]*wr, 2)
	mk := func(u int) Protocol {
		w := &wr{}
		nodes[u] = w
		return protoFuncs{
			wake: func(env proto.Env) []proto.Send {
				w.woke = true
				if u == 0 {
					return []proto.Send{{Port: 0, Msg: proto.Message{Kind: 9}}}
				}
				return nil
			},
			receive: func(d proto.Delivery) []proto.Send {
				if w.woke {
					w.wokeFirst = true
				}
				return nil
			},
		}
	}
	if _, err := Run(Config{
		N: 2, IDs: ids.Assignment{1, 2}, Wake: SubsetAtZero([]int{0}), Seed: 1,
	}, perNode(mk)); err != nil {
		t.Fatal(err)
	}
	if !nodes[1].wokeFirst {
		t.Fatal("Receive ran before Wake on a message-woken node")
	}
}

// perNode is the Factory of a test whose nodes differ by index: it sets
// node u to mk(u). Protocol factories read no index; these fakes do.
func perNode(mk func(u int) Protocol) Factory {
	return func(nodes []Protocol) {
		for u := range nodes {
			nodes[u] = mk(u)
		}
	}
}

// protoFuncs adapts closures to the Protocol interface.
type protoFuncs struct {
	wake    func(proto.Env) []proto.Send
	receive func(proto.Delivery) []proto.Send
}

func (p protoFuncs) Wake(env proto.Env) []proto.Send       { return p.wake(env) }
func (p protoFuncs) Receive(d proto.Delivery) []proto.Send { return p.receive(d) }
func (p protoFuncs) Decision() proto.Decision              { return proto.NonLeader }

// babbler sends forever (each received message triggers another), to test
// the event budget.
type babbler struct{ env proto.Env }

func (b *babbler) Wake(env proto.Env) []proto.Send {
	b.env = env
	return []proto.Send{{Port: 0, Msg: proto.Message{Kind: 1}}}
}

func (b *babbler) Receive(d proto.Delivery) []proto.Send {
	return []proto.Send{{Port: d.Port, Msg: proto.Message{Kind: 1}}}
}

func (b *babbler) Decision() proto.Decision { return proto.Undecided }

func TestMaxEventsGuard(t *testing.T) {
	res, err := Run(Config{
		N: 2, IDs: ids.Assignment{1, 2}, Wake: SubsetAtZero([]int{0}),
		MaxEvents: 100, Seed: 1,
	}, Slab(babbler{}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Fatal("expected TimedOut")
	}
	if err := res.Validate(); err == nil {
		t.Fatal("Validate must fail after timeout")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	const n = 24
	assign := ids.Random(ids.LogUniverse(n), n, xrand.New(4))
	run := func() *Result {
		res, err := Run(Config{
			N: n, IDs: assign, Wake: SubsetAtZero([]int{0, 3, 9}),
			Delays: UniformDelay{Lo: 0.1}, Seed: 77,
		}, perNode(func(u int) Protocol { return &flooder{fan: 4, root: u == 0 || u == 3 || u == 9} }))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Messages != b.Messages || a.TimeUnits != b.TimeUnits {
		t.Fatalf("diverged: %d/%v vs %d/%v", a.Messages, a.TimeUnits, b.Messages, b.TimeUnits)
	}
	for u := range a.WakeTime {
		if a.WakeTime[u] != b.WakeTime[u] {
			t.Fatalf("wake times diverged at node %d", u)
		}
	}
}

func TestStaggeredWakeNormalization(t *testing.T) {
	// First wake at t=5; a single unit-delay message makes the makespan 1.
	res, err := Run(Config{
		N: 2, IDs: ids.Assignment{1, 2},
		Wake: WakeSchedule{{Node: 0, Time: 5}},
		Seed: 1,
	}, perNode(func(u int) Protocol {
		if u == 0 {
			return &seqSender{}
		}
		return &recorder{}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.TimeUnits-1) > 1e-9 {
		t.Fatalf("TimeUnits = %v, want 1", res.TimeUnits)
	}
}

func TestConfigErrors(t *testing.T) {
	mk := Slab(recorder{})
	if _, err := Run(Config{N: 0, Wake: SubsetAtZero([]int{0})}, mk); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := Run(Config{N: 2, IDs: ids.Assignment{1, 2}, Wake: WakeSchedule{}}, mk); err == nil {
		t.Fatal("empty wake schedule accepted")
	}
	if _, err := Run(Config{N: 2, IDs: ids.Assignment{1}, Wake: SubsetAtZero([]int{0})}, mk); err == nil {
		t.Fatal("ID mismatch accepted")
	}
	if _, err := Run(Config{N: 2, IDs: ids.Assignment{1, 2}, Wake: SubsetAtZero([]int{7})}, mk); err == nil {
		t.Fatal("invalid wake node accepted")
	}
	if _, err := Run(Config{
		N: 2, IDs: ids.Assignment{1, 2}, Wake: WakeSchedule{{Node: 0, Time: -1}},
	}, mk); err == nil {
		t.Fatal("negative wake time accepted")
	}
	if _, err := Run(Config{
		N: 2, IDs: ids.Assignment{1, 2}, Wake: WakeSchedule{{Node: 0, Time: math.NaN()}},
	}, mk); err == nil {
		t.Fatal("NaN wake time accepted")
	}
}

func TestDoubleWakeIgnored(t *testing.T) {
	// Waking the same node twice must call Wake only once.
	calls := 0
	_, err := Run(Config{
		N: 2, IDs: ids.Assignment{1, 2},
		Wake: WakeSchedule{{Node: 0, Time: 0}, {Node: 0, Time: 0.5}},
	}, perNode(func(u int) Protocol {
		return protoFuncs{
			wake: func(proto.Env) []proto.Send {
				if u == 0 {
					calls++
				}
				return nil
			},
			receive: func(proto.Delivery) []proto.Send { return nil },
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("Wake called %d times", calls)
	}
}

func TestSkewAndUniformPolicies(t *testing.T) {
	rng := xrand.New(1)
	u := UniformDelay{Lo: 0.25}
	for i := 0; i < 1000; i++ {
		d := u.Delay(0, 0, 0, 0, rng)
		if d < 0.25 || d > 1 {
			t.Fatalf("UniformDelay out of range: %v", d)
		}
	}
	s := SkewDelay{Fast: 0.1, Mod: 2}
	if s.Delay(0, 0, 0, 0, rng) != 1 || s.Delay(1, 0, 0, 0, rng) != 0.1 {
		t.Fatal("SkewDelay routing wrong")
	}
	if (SkewDelay{}).Delay(5, 0, 0, 0, rng) != 1 {
		t.Fatal("Mod<=1 should make everyone slow")
	}
}

func TestKindDelayPolicy(t *testing.T) {
	p := KindDelay{Slow: []uint8{7}, Fast: 0.1}
	rng := xrand.New(1)
	if got := p.Delay(0, 0, 7, 0, rng); got != 1 {
		t.Fatalf("slow kind delay = %v", got)
	}
	if got := p.Delay(0, 0, 8, 0, rng); got != 0.1 {
		t.Fatalf("fast kind delay = %v", got)
	}
	if got := (KindDelay{Slow: []uint8{7}}).Delay(0, 0, 8, 0, rng); got != 0.05 {
		t.Fatalf("default fast = %v", got)
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

// TestFaultsCrashedRootNeverWakes crashes the only adversarially woken node
// at time 0: the run must produce no messages and record the crash.
func TestFaultsCrashedRootNeverWakes(t *testing.T) {
	const n = 8
	res, err := Run(Config{
		N: n, IDs: ids.Sequential(ids.LinearUniverse(n, 1), n),
		Wake: SubsetAtZero([]int{0}), Seed: 3,
		Faults: faultInjector(t, faults.Plan{Crashes: []faults.Crash{{Node: 0, At: 0}}}, n, 9),
	}, perNode(func(u int) Protocol { return &flooder{fan: 1, root: u == 0} }))
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 0 {
		t.Fatalf("Messages = %d, want 0", res.Messages)
	}
	if len(res.Crashed) != 1 || res.Crashed[0] != 0 {
		t.Fatalf("Crashed = %v, want [0]", res.Crashed)
	}
	if res.WakeTime[0] >= 0 {
		t.Fatalf("crashed root woke at %v", res.WakeTime[0])
	}
}

// TestFaultsDropFirstKillsOpeningMove drops exactly the first message: the
// token chain dies immediately but the send is still counted.
func TestFaultsDropFirstKillsOpeningMove(t *testing.T) {
	const n = 8
	res, err := Run(Config{
		N: n, IDs: ids.Sequential(ids.LinearUniverse(n, 1), n),
		Wake: SubsetAtZero([]int{0}), Seed: 3,
		Faults: faultInjector(t, faults.Plan{DropFirst: 1}, n, 9),
	}, perNode(func(u int) Protocol { return &flooder{fan: 1, root: u == 0} }))
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 1 || res.Dropped != 1 {
		t.Fatalf("Messages = %d, Dropped = %d, want 1, 1", res.Messages, res.Dropped)
	}
	for u := 1; u < n; u++ {
		if res.WakeTime[u] >= 0 {
			t.Fatalf("node %d woke despite the dropped token", u)
		}
	}
}

// TestFaultsDuplicateCopies duplicates every message: the protocol sends the
// same count, the injector reports one extra copy per send, and receivers
// see doubled deliveries.
func TestFaultsDuplicateCopies(t *testing.T) {
	const n = 4
	res, err := Run(Config{
		N: n, IDs: ids.Sequential(ids.LinearUniverse(n, 1), n),
		Wake: SubsetAtZero([]int{0}), Seed: 3,
		Faults: faultInjector(t, faults.Plan{DupRate: 1}, n, 9),
	}, perNode(func(u int) Protocol { return &flooder{fan: 1, root: u == 0} }))
	if err != nil {
		t.Fatal(err)
	}
	if res.Duplicated != res.Messages || res.Duplicated == 0 {
		t.Fatalf("Duplicated = %d, Messages = %d", res.Duplicated, res.Messages)
	}
}

// TestFaultsZeroPlanIdentical runs the same execution with no injector and a
// zero-plan injector: deeply identical results (no engine randomness used).
func TestFaultsZeroPlanIdentical(t *testing.T) {
	const n = 16
	assign := ids.Random(ids.LogUniverse(n), n, xrand.New(7))
	factory := perNode(func(u int) Protocol { return &flooder{fan: 3, root: u == 0} })
	cfg := Config{N: n, IDs: assign, Wake: SubsetAtZero([]int{0}), Seed: 42,
		Delays: UniformDelay{Lo: 0.05}}
	plain, err := Run(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = faultInjector(t, faults.Plan{}, n, 1234)
	faulted, err := Run(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, faulted) {
		t.Fatalf("zero-plan run diverged:\nplain   %+v\nfaulted %+v", plain, faulted)
	}
}

// TestFaultsQuietVictimStillRecorded: a crash that falls within the run's
// span must be recorded even if no event for the victim ever pops after it
// (final crash sweep), so a quietly crashed node never counts as a survivor.
// Node 1 here has no events at all: nodes 0 and 2 wake silently at times 0
// and 5, so only the sweep can observe node 1's crash at time 3.
func TestFaultsQuietVictimStillRecorded(t *testing.T) {
	const n = 3
	silent := perNode(func(u int) Protocol { return &flooder{fan: 0, root: u == 0} })
	cfg := Config{
		N: n, IDs: ids.Sequential(ids.LinearUniverse(n, 1), n),
		Wake: WakeSchedule{{Node: 0, Time: 0}, {Node: 2, Time: 5}}, Seed: 3,
	}
	cfg.Faults = faultInjector(t, faults.Plan{Crashes: []faults.Crash{{Node: 1, At: 3}}}, n, 9)
	res, err := Run(cfg, silent)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CrashedNode(1) {
		t.Fatalf("mid-span crash of an event-less node not recorded: %v", res.Crashed)
	}
	// Scheduled beyond the run's span (last event at time 5): not recorded.
	cfg.Faults = faultInjector(t, faults.Plan{Crashes: []faults.Crash{{Node: 1, At: 7}}}, n, 9)
	res, err = Run(cfg, silent)
	if err != nil {
		t.Fatal(err)
	}
	if res.CrashedNode(1) {
		t.Fatalf("crash beyond the run's span recorded: %v", res.Crashed)
	}
}
