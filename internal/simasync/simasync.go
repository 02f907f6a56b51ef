// Package simasync simulates the asynchronous clique of Section 5 of the
// paper: point-to-point links with adversarially chosen message delays,
// per-link FIFO delivery, an obliviously chosen port mapping, and
// adversarial wake-up.
//
// Following the paper's definition, the asynchronous time complexity of a
// run is the total number of time units from the first wake-up until the
// last message is received, where one unit of time is an upper bound on the
// transmission time of a message. The engine therefore constrains every
// delay policy to produce delays in (0, 1] and reports the makespan
// directly in those units. Node-local processing is instantaneous.
//
// The adversary model matches Section 5: the port mapping is fixed
// obliviously (before any node wakes, independent of the nodes' coins),
// while the schedule (delays) may be adaptive. Determinism: events are
// processed in (time, sequence number) order, a total order, so identical
// seeds reproduce identical executions. The queue keeps that order in two
// parts: a FIFO lane that takes every event not earlier than the last one
// it took, and a binary heap for the rest; a pop takes the earlier of the
// two heads. Under UnitDelay with wake-ups in time order (as a nil wake
// schedule and SubsetAtZero give them), times never decrease, so every event
// rides the lane and the heap stays empty.
package simasync

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"cliquelect/internal/faults"
	"cliquelect/internal/flatmap"
	"cliquelect/internal/ids"
	"cliquelect/internal/obs"
	"cliquelect/internal/portmap"
	"cliquelect/internal/proto"
	"cliquelect/internal/xrand"
)

// Protocol is the per-node logic of an asynchronous algorithm. Wake is
// called exactly once when the node is activated — by the adversary or by
// its first incoming message; in the latter case Receive is called for that
// message immediately after Wake. Receive is invoked once per delivered
// message, in delivery order. Both return the messages to send, which depart
// at the current instant. Nodes are expected to keep responding after
// deciding (Algorithm 2 requires referees to answer compete-messages even
// when decided), so there is no halt signal: a run ends at quiescence.
//
// A protocol builds the sends it returns in env.Out, the run's one
// engine-owned proto.SendBuf: the engine turns a callback's slice into
// events before it calls any node again, so every node of a run shares the
// buffer. A protocol must not keep the returned slice, nor rely on the
// buffer's contents, past the callback.
type Protocol interface {
	Wake(env proto.Env) []proto.Send
	Receive(d proto.Delivery) []proto.Send
	Decision() proto.Decision
}

// Factory builds the protocol instances of one run. An engine (simasync or
// livenet) calls it once per run, before any node wakes, with a nodes slice
// of length N whose entries are nil, and the factory points entry u, node
// u, at an instance of its own, in the state Wake expects to find. A
// protocol learns its ID, n and generator only from the proto.Env Wake
// receives, so a factory draws no randomness and the run's RNG streams do
// not depend on it. Under livenet every node runs on its own goroutine, so
// instances must share no mutable state.
type Factory func(nodes []Protocol)

// Slab is simsync.Slab for asynchronous protocols: one fresh []T of copies
// of v per run. Distinct elements are distinct memory, so livenet's node
// goroutines share nothing through it.
func Slab[T any, P interface {
	*T
	Protocol
}](v T) Factory {
	return func(nodes []Protocol) {
		slab := make([]T, len(nodes))
		for i := range slab {
			slab[i] = v
			nodes[i] = P(&slab[i])
		}
	}
}

// DelayPolicy is the adversary's scheduler: it assigns each message a
// transmission delay, given its sender, port and message kind. Results are
// clamped to (0, 1] by the engine (one time unit is, by definition, the
// maximum transmission time). Section 5's adversary is adaptive (it sees
// the nodes' random bits before scheduling), so content-aware scheduling is
// admissible: the stress tests slow down exactly the messages whose late
// arrival exercises an algorithm's hardest code path (e.g. Algorithm 2's
// winner revocation).
type DelayPolicy interface {
	Delay(src, port int, kind uint8, now float64, rng *xrand.RNG) float64
}

// KindDelay slows messages of the designated kinds to a full time unit and
// delivers everything else after Fast.
type KindDelay struct {
	Slow []uint8
	Fast float64 // delay for all other kinds; <= 0 means 0.05
}

// Delay implements DelayPolicy.
func (k KindDelay) Delay(_, _ int, kind uint8, _ float64, _ *xrand.RNG) float64 {
	for _, s := range k.Slow {
		if s == kind {
			return 1
		}
	}
	return k.fast()
}

func (k KindDelay) fast() float64 {
	if k.Fast <= 0 {
		return 0.05
	}
	return k.Fast
}

// UnitDelay delivers every message after exactly one time unit — the
// synchronous-like worst case.
type UnitDelay struct{}

// Delay implements DelayPolicy.
func (UnitDelay) Delay(int, int, uint8, float64, *xrand.RNG) float64 { return 1 }

// UniformDelay draws each delay uniformly from [Lo, 1]. Lo <= 0 is treated
// as a small positive floor.
type UniformDelay struct {
	Lo float64
}

// Delay implements DelayPolicy.
func (u UniformDelay) Delay(_, _ int, _ uint8, _ float64, rng *xrand.RNG) float64 {
	lo := u.Lo
	if lo <= 0 {
		lo = 1e-6
	}
	if lo > 1 {
		lo = 1
	}
	return lo + (1-lo)*rng.Float64()
}

// SkewDelay makes a subset of senders slow (delay 1) and everyone else fast
// (delay Fast): a crude but effective adversary against algorithms that
// assume uniform progress, and the scheduler that exercises Algorithm 2's
// winner-revocation path (slow compete messages arrive after a referee has
// already crowned someone else).
type SkewDelay struct {
	Fast float64 // delay for fast senders, e.g. 0.05
	Mod  int     // senders with index % Mod == 0 are slow; Mod <= 1 = all slow
}

// Delay implements DelayPolicy.
func (s SkewDelay) Delay(src, _ int, _ uint8, _ float64, _ *xrand.RNG) float64 {
	if s.Mod <= 1 || src%s.Mod == 0 {
		return 1
	}
	f := s.Fast
	if f <= 0 {
		f = 0.05
	}
	return f
}

// WakeSchedule lists adversary-initiated wake-ups. Times must be >= 0; the
// engine normalizes the earliest to time 0 for the makespan measurement.
type WakeSchedule []WakeAt

// WakeAt wakes one node at one instant.
type WakeAt struct {
	Node int
	Time float64
}

// SubsetAtZero wakes the given nodes at time zero (Section 5's adversarial
// wake-up, paper's simplifying assumption of round-1-only wake-ups). A nil
// set gives a nil schedule, which wakes every node.
func SubsetAtZero(nodes []int) WakeSchedule {
	if nodes == nil {
		return nil
	}
	ws := make(WakeSchedule, len(nodes))
	for i, u := range nodes {
		ws[i] = WakeAt{Node: u}
	}
	return ws
}

// Config describes one asynchronous execution.
type Config struct {
	// N is the number of nodes.
	N int
	// IDs assigns an ID per node; required, length N.
	IDs ids.Assignment
	// Ports is the oblivious port mapping; nil defaults to LazyRandom seeded
	// from Seed.
	Ports portmap.Map
	// Delays is the adversary's scheduler; nil defaults to UnitDelay.
	Delays DelayPolicy
	// Wake is the adversary's wake schedule. nil wakes every node at time
	// 0, the simultaneous wake-up of Section 5.4; a non-nil schedule must be
	// nonempty.
	Wake WakeSchedule
	// Seed drives engine randomness (port map, node RNGs, delay draws).
	Seed uint64
	// MaxEvents aborts runaway executions; 0 defaults to 64*N*N + 1<<16.
	MaxEvents int64
	// MaxMessages drops further sends once the message count reaches this
	// budget (the run continues to quiescence on the messages already in
	// flight); 0 means unlimited.
	MaxMessages int64
	// Faults, when non-nil, injects crash-stop/drop/duplicate faults. Crash
	// checks run at every event (instant = event time) and every send passes
	// through the injector. The injector's RNG is private, so a nil injector
	// leaves executions byte-identical to fault-free runs.
	Faults *faults.Injector
	// Rounds, when non-nil, collects a per-window telemetry timeline:
	// events are bucketed into unit-time windows measured from the first
	// wake-up (window w covers [w, w+1)), the async analogue of the sync
	// engine's rounds. Purely observational — no randomness is consumed and
	// a nil probe costs one branch per event.
	Rounds *obs.RoundTrace
}

// Result summarizes one asynchronous execution: the outcome every engine
// reports, plus the time record. TimedOut means MaxEvents was exhausted;
// Truncated means MaxMessages was reached and sends were dropped.
type Result struct {
	proto.Outcome
	// TimeUnits is the asynchronous time complexity: latest event time minus
	// earliest wake time, in units of the maximum transmission delay.
	TimeUnits float64
	// WakeTime[u] is when node u woke; -1 if it never woke.
	WakeTime []float64
}

func (r *Result) woke(u int) bool { return r.WakeTime[u] >= 0 }

// AllAwake reports whether every node was activated.
func (r *Result) AllAwake() bool { return r.AllWoke(r.woke) }

// Validate checks implicit leader election (proto.Outcome.CheckElection).
func (r *Result) Validate() error { return r.CheckElection(r.woke) }

type eventKind uint8

const (
	evWake eventKind = iota + 1
	evDeliver
)

type event struct {
	time float64
	seq  int64
	kind eventKind
	node int
	d    proto.Delivery
}

// eventHeap is a hand-rolled binary min-heap over (time, seq). It replaces
// container/heap on the event loop's hottest edge: the standard library's
// interface-based Push boxes every event into an allocation, which at one
// event per message dominated the simulator's allocation profile. (time,
// seq) is a total order — seq is unique — so the pop sequence is the sorted
// order regardless of heap internals, and executions are byte-identical to
// the container/heap implementation.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && q.less(l, small) {
			small = l
		}
		if r < n && q.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	return top
}

// lane is a ring of events in (time, seq) order: the event queue's fast
// path. A push only ever appends an event that is not earlier than the
// tail, and seq grows with every push, so the ring stays sorted and both
// ends are O(1).
type lane struct {
	buf  []event // ring storage; len is zero or a power of two
	head int     // index of the earliest pending event
	n    int     // pending events
}

func (l *lane) tail() *event { return &l.buf[(l.head+l.n-1)&(len(l.buf)-1)] }

func (l *lane) push(e event) {
	if l.n == len(l.buf) {
		buf := make([]event, max(minLane, 2*len(l.buf)))
		k := copy(buf, l.buf[l.head:])
		copy(buf[k:], l.buf[:l.head])
		l.buf, l.head = buf, 0
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = e
	l.n++
}

func (l *lane) pop() event {
	e := l.buf[l.head]
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	return e
}

const minLane = 64

// eventQueue yields events in (time, seq) order. An event not earlier than
// the lane's tail joins the lane; any other goes to the heap. Each part is
// sorted, so the earlier of their two heads is the next event overall, and
// the pop sequence is the sorted order whichever part held each event.
type eventQueue struct {
	lane lane
	heap eventHeap
}

func (q *eventQueue) len() int { return q.lane.n + len(q.heap) }

// reset empties the queue, keeping both parts' storage for reuse.
func (q *eventQueue) reset() {
	q.lane.head, q.lane.n = 0, 0
	q.heap = q.heap[:0]
}

func (q *eventQueue) push(e event) {
	if q.lane.n > 0 && e.time < q.lane.tail().time {
		q.heap.push(e)
		return
	}
	q.lane.push(e)
}

func (q *eventQueue) pop() event {
	if q.lane.n > 0 {
		if len(q.heap) == 0 {
			return q.lane.pop()
		}
		l, h := &q.lane.buf[q.lane.head], &q.heap[0]
		if l.time < h.time || (l.time == h.time && l.seq < h.seq) {
			return q.lane.pop()
		}
	}
	return q.heap.pop()
}

// scratch is the pooled per-run state of the event loop: the event queue's
// lane and heap and the FIFO clamp table, each of which reaches O(messages)
// size and is reused across the runs of a sweep, and the send buffer every
// node of a run shares. Under UnitDelay the clamp table stays unused, and
// with wake-ups in time order so does the heap.
type scratch struct {
	q     eventQueue
	sched flatmap.U64Map // directed link -> last delivery time bits (FIFO clamp)
	out   proto.SendBuf
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch {
	s := scratchPool.Get().(*scratch)
	s.q.reset()
	s.sched.Reset()
	return s
}

// Run executes the configured asynchronous algorithm to quiescence.
func Run(cfg Config, factory Factory) (*Result, error) {
	n := cfg.N
	if n < 1 {
		return nil, fmt.Errorf("simasync: N = %d", n)
	}
	if len(cfg.IDs) != n {
		return nil, fmt.Errorf("simasync: %d IDs for %d nodes", len(cfg.IDs), n)
	}
	if cfg.Wake != nil && len(cfg.Wake) == 0 {
		return nil, errors.New("simasync: empty wake schedule")
	}
	master := xrand.New(cfg.Seed)
	pm := cfg.Ports
	if pm == nil && n >= 2 {
		lr := portmap.NewLazyRandom(n, master.Split())
		defer lr.Release() // engine-owned: nothing retains the wiring
		pm = lr
	}
	delays := cfg.Delays
	if delays == nil {
		delays = UnitDelay{}
	}
	delayRNG := master.Split()
	maxEvents := cfg.MaxEvents
	if maxEvents == 0 {
		maxEvents = 64*int64(n)*int64(n) + 1<<16
	}

	sc := getScratch()
	defer scratchPool.Put(sc)
	nodes := make([]Protocol, n)
	factory(nodes)
	// All node generators live in one flat slice, split in node order; rngs
	// must outlive the event loop (protocols hold pointers into it), so it
	// is per-run, not pooled scratch.
	rngs := make([]xrand.RNG, n)
	for u := range rngs {
		master.SplitInto(&rngs[u])
	}
	// env builds node u's environment when it wakes.
	env := func(u int) proto.Env {
		return proto.Env{ID: int64(cfg.IDs[u]), N: n, RNG: &rngs[u], Out: &sc.out}
	}

	res := &Result{
		Outcome:  proto.Outcome{Decisions: make([]proto.Decision, n)},
		WakeTime: make([]float64, n),
	}
	for u := range res.WakeTime {
		res.WakeTime[u] = -1
	}

	var seq int64
	push := func(e event) {
		e.seq = seq
		seq++
		sc.q.push(e)
	}
	firstWake := 0.0
	if cfg.Wake == nil {
		for u := 0; u < n; u++ {
			push(event{kind: evWake, node: u})
		}
	} else {
		firstWake = cfg.Wake[0].Time
	}
	for _, w := range cfg.Wake {
		if w.Node < 0 || w.Node >= n {
			return nil, fmt.Errorf("simasync: wake schedule names invalid node %d", w.Node)
		}
		if !(w.Time >= 0) {
			return nil, fmt.Errorf("simasync: invalid wake time %v (need >= 0)", w.Time)
		}
		if w.Time < firstWake {
			firstWake = w.Time
		}
		push(event{time: w.Time, kind: evWake, node: w.Node})
	}

	awake := make([]bool, n)
	linkKey := func(src, dst int) uint64 { return uint64(src)<<32 | uint64(uint32(dst)) }
	lastEvent := firstWake

	// Per-window probe: every event lands in unit-time window
	// int(t - firstWake) — well-defined because no event precedes the first
	// wake-up, and contiguous up to gaps the collector zero-fills.
	rt := cfg.Rounds
	window := func(at float64) int { return int(at - firstWake) }

	inj := cfg.Faults
	// Under UnitDelay each delivery is due at now+1 and now never
	// decreases, so no message can overtake an earlier one on its link and
	// the FIFO clamp below could never move an event.
	_, unit := delays.(UnitDelay)
	dispatch := func(u int, now float64, outs []proto.Send) error {
		for _, s := range outs {
			if s.Port < 0 || s.Port >= n-1 {
				return fmt.Errorf("simasync: node %d sent on invalid port %d (degree %d)", u, s.Port, n-1)
			}
			if cfg.MaxMessages > 0 && res.Messages >= cfg.MaxMessages {
				res.Truncated = true
				continue
			}
			v, q := pm.Dest(u, s.Port)
			res.Messages++
			res.Words += int64(s.Msg.Words())
			if rt != nil {
				rt.Send(window(now), u, s.Msg.Kind, s.Msg.Words())
			}
			copies := 1
			if inj != nil {
				// Fault hook: per-delivery verdict. The message counts as
				// sent either way; only its delivery fate changes. A
				// duplicate gets its own delay draw, so the copies may arrive
				// arbitrarily far apart (FIFO per link still holds).
				switch inj.OnSend(u, v, s.Msg, now) {
				case faults.Drop:
					copies = 0
				case faults.Duplicate:
					copies = 2
				}
			}
			for c := 0; c < copies; c++ {
				d := delays.Delay(u, s.Port, s.Msg.Kind, now, delayRNG)
				if !(d > 0) { // NaN too: it would void the queue's order
					d = 1e-9
				}
				if d > 1 {
					d = 1
				}
				at := now + d
				if !unit {
					lk := linkKey(u, v)
					if bits, ok := sc.sched.Get(lk); ok {
						if prev := math.Float64frombits(bits); at < prev {
							at = prev // FIFO: no overtaking on a link
						}
					}
					sc.sched.Put(lk, math.Float64bits(at))
				}
				push(event{time: at, kind: evDeliver, node: v, d: proto.Delivery{Port: q, Msg: s.Msg}})
			}
		}
		return nil
	}

	var processed int64
	for sc.q.len() > 0 {
		if processed >= maxEvents {
			res.TimedOut = true
			break
		}
		processed++
		e := sc.q.pop()
		u := e.node
		if inj != nil {
			// Fault hook: adaptive adversary tick, then the crash check for
			// the event's node. A crashed node's events are lost — a sleeping
			// victim never wakes, an in-flight delivery to it vanishes — and
			// lost events do not extend the makespan.
			inj.Tick(e.time)
			if inj.CrashedAt(u, e.time) {
				continue
			}
		}
		if e.time > lastEvent {
			lastEvent = e.time
		}
		// wakeAndDispatch activates a sleeping node; the probe attributes the
		// wake-up (and any decision it finalizes) to the event's window.
		wakeAndDispatch := func() error {
			awake[u] = true
			res.WakeTime[u] = e.time
			if rt == nil {
				return dispatch(u, e.time, nodes[u].Wake(env(u)))
			}
			rt.Woke(window(e.time))
			before := nodes[u].Decision()
			outs := nodes[u].Wake(env(u))
			if nodes[u].Decision() != before {
				rt.Decided(window(e.time))
			}
			return dispatch(u, e.time, outs)
		}
		switch e.kind {
		case evWake:
			if awake[u] {
				continue
			}
			if err := wakeAndDispatch(); err != nil {
				return nil, err
			}
		case evDeliver:
			if !awake[u] {
				if err := wakeAndDispatch(); err != nil {
					return nil, err
				}
			}
			if rt == nil {
				if err := dispatch(u, e.time, nodes[u].Receive(e.d)); err != nil {
					return nil, err
				}
				continue
			}
			rt.Deliver(window(e.time), 1)
			before := nodes[u].Decision()
			outs := nodes[u].Receive(e.d)
			if nodes[u].Decision() != before {
				rt.Decided(window(e.time))
			}
			if err := dispatch(u, e.time, outs); err != nil {
				return nil, err
			}
		}
	}
	for u := 0; u < n; u++ {
		res.Decisions[u] = nodes[u].Decision()
	}
	res.TimeUnits = lastEvent - firstWake
	// Final crash sweep: record every crash that fell within the run's span
	// even if no event for the victim popped after its crash instant —
	// otherwise a quiet victim (e.g. a leader that crashed after its last
	// delivery) would still count as a survivor, diverging from the sync
	// engine's every-node-every-round check.
	if inj != nil {
		for u := 0; u < n; u++ {
			inj.CrashedAt(u, lastEvent)
		}
	}
	inj.Record(&res.Outcome)
	return res, nil
}

// Interface compliance checks.
var (
	_ DelayPolicy = UnitDelay{}
	_ DelayPolicy = UniformDelay{}
	_ DelayPolicy = SkewDelay{}
	_ DelayPolicy = KindDelay{}
)
