// Package simsync simulates the synchronous clique of the paper (Section 2):
// n nodes connected by point-to-point links, communicating in lock-step
// rounds under the KT0 clean-network model. Setting Config.Topo replaces the
// clique wiring with an explicit general graph (internal/topo): ports then
// number 0..Degree(u)-1 and messages travel only along edges, with identical
// round semantics.
//
// Round semantics follow the standard synchronous model the paper uses: in
// round r every awake node first sends messages (over ports), then receives
// every message sent to it in round r, then updates its state. Hence a
// referee contacted in round 1 can answer in round 2, and an algorithm that
// broadcasts in its final round ends in that round (decisions are made in
// the receive phase).
//
// Wake-up follows Section 3 (simultaneous: every node starts in round 1) or
// Section 4 (adversarial: the adversary picks a nonempty subset awake in
// round 1; every other node sleeps until it receives a message, waking at
// the end of that round and acting from the next round on).
package simsync

import (
	"errors"
	"fmt"

	"cliquelect/internal/faults"
	"cliquelect/internal/ids"
	"cliquelect/internal/obs"
	"cliquelect/internal/portmap"
	"cliquelect/internal/proto"
	"cliquelect/internal/topo"
	"cliquelect/internal/trace"
	"cliquelect/internal/xrand"
)

// Protocol is the per-node logic of a synchronous algorithm.
//
// The engine calls Init exactly once when the node wakes. Then, for every
// round r in which the node is awake and not halted, it calls Send(r) at the
// start of the round and Deliver(r, inbox) at the end of the round, where
// inbox holds the messages sent to the node in round r (possibly empty; the
// slice is only valid during the call). A node woken by a message in round r
// receives Init followed by Deliver(r, inbox) and makes its first sends in
// round r+1, matching the paper's wake-at-end-of-round semantics.
//
// A protocol builds the sends it returns from Send in env.Out, the run's
// one engine-owned proto.SendBuf: the engine consumes each node's slice
// before it calls the next node's Send, so every node of a run shares the
// buffer and the round loop allocates no sends. A protocol must not keep
// the returned slice, nor rely on the buffer's contents, past its Send
// call. Symmetrically, the inbox passed to Deliver is engine-owned scratch,
// valid only during the call.
//
// Once Halted returns true the engine stops invoking the node; messages
// addressed to it are still counted but dropped. Decision must be
// irrevocable once it leaves Undecided.
type Protocol interface {
	Init(env proto.Env)
	Send(round int) []proto.Send
	Deliver(round int, inbox []proto.Delivery)
	Decision() proto.Decision
	Halted() bool
}

// Factory constructs the protocol instance for a node. It is called once per
// node, in node order, before the run starts.
type Factory func(node int) Protocol

// Config describes one synchronous execution.
type Config struct {
	// N is the number of nodes.
	N int
	// IDs assigns an ID to each node. Required, length N.
	IDs ids.Assignment
	// Ports is the port mapping; nil defaults to a LazyRandom mapping seeded
	// from Seed. Ignored when Topo is set.
	Ports portmap.Map
	// Topo, when non-nil, wires the nodes as an explicit general graph
	// instead of the default clique: node u owns Degree(u) ports and
	// messages travel only along edges. The topology's degree and diameter
	// estimate are exposed to protocols through proto.Env.
	Topo *topo.Graph
	// Wake lists the nodes the adversary wakes at the start of round 1 (the
	// paper's simplifying assumption: all adversarial wake-ups happen in
	// round 1). nil wakes every node, Section 3's simultaneous model; a
	// non-nil set must be nonempty.
	Wake []int
	// Seed drives all engine-owned randomness (default port map, node RNGs).
	Seed uint64
	// MaxRounds aborts runaway executions; 0 defaults to 4*N+64.
	MaxRounds int
	// MaxMessages aborts the run once the message count reaches this budget
	// (checked at round boundaries, so the final round may overshoot); 0
	// means unlimited.
	MaxMessages int64
	// Trace, when non-nil, records the communication graph of the run
	// (needed by the lower-bound harnesses; costs extra memory).
	Trace *trace.Recorder
	// Rounds, when non-nil, collects a per-round telemetry timeline
	// (messages, kinds, active senders, deliveries, wake-ups, decisions).
	// Purely observational: it consumes no randomness, so traced and
	// untraced executions are byte-identical in every other Result field,
	// and a nil probe costs one branch per event on the hot path.
	Rounds *obs.RoundTrace
	// Faults, when non-nil, injects crash-stop/drop/duplicate faults. Crash
	// checks run at every round boundary (instant = round number) and every
	// send passes through the injector. The injector's RNG is private, so a
	// nil injector leaves executions byte-identical to fault-free runs.
	Faults *faults.Injector
	// Strict enables protocol-violation detection (duplicate sends on one
	// port within a round). Tests enable it; large benchmark runs leave it
	// off to keep the hot path allocation-free.
	Strict bool
}

// Result summarizes one synchronous execution: the outcome every engine
// reports, plus the round record. TimedOut means MaxRounds elapsed before
// quiescence; Truncated means MaxMessages was exhausted.
type Result struct {
	proto.Outcome
	// Rounds is the paper's time complexity: the last round in which any
	// message was sent or any node woke or decided.
	Rounds int
	// PerRound[r] is the number of messages sent in round r (index 0 unused).
	PerRound []int64
	// WakeRound[u] is the round node u woke (1 for initially-awake nodes, 0
	// if it never woke).
	WakeRound []int
}

func (r *Result) woke(u int) bool { return r.WakeRound[u] != 0 }

// AllAwake reports whether every node woke up during the run (the wake-up
// problem of Theorem 4.2).
func (r *Result) AllAwake() bool { return r.AllWoke(r.woke) }

// Validate checks implicit leader election (proto.Outcome.CheckElection).
func (r *Result) Validate() error { return r.CheckElection(r.woke) }

// Run executes the configured synchronous algorithm to quiescence and
// returns its measurements. It returns an error for malformed configurations
// or (under Strict) protocol violations.
func Run(cfg Config, factory Factory) (*Result, error) {
	n := cfg.N
	if n < 1 {
		return nil, fmt.Errorf("simsync: N = %d", n)
	}
	if len(cfg.IDs) != n {
		return nil, fmt.Errorf("simsync: %d IDs for %d nodes", len(cfg.IDs), n)
	}
	if cfg.Topo != nil && cfg.Topo.N() != n {
		return nil, fmt.Errorf("simsync: topology has %d nodes, config has %d", cfg.Topo.N(), n)
	}
	master := xrand.New(cfg.Seed)
	portRNG := master.Split()
	pm := cfg.Ports
	if pm == nil && cfg.Topo == nil && n >= 2 {
		lr := portmap.NewLazyRandom(n, portRNG)
		defer lr.Release() // engine-owned: nothing retains the wiring
		pm = lr
	}
	if cfg.Wake != nil && len(cfg.Wake) == 0 {
		return nil, errors.New("simsync: empty wake set")
	}
	for _, u := range cfg.Wake {
		if u < 0 || u >= n {
			return nil, fmt.Errorf("simsync: wake set names invalid node %d", u)
		}
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = 4*n + 64
	}

	nodes := make([]Protocol, n)
	for u := 0; u < n; u++ {
		nodes[u] = factory(u)
	}
	res := &Result{
		Outcome:   proto.Outcome{Decisions: make([]proto.Decision, n)},
		PerRound:  make([]int64, 1, 64),
		WakeRound: make([]int, n),
	}

	// The per-node inboxes and the shared send buffer come from the pooled
	// arena: their capacity survives both the per-round reset and the run
	// itself, so a steady sweep of same-shape runs sends and delivers every
	// message without allocating.
	arena := proto.GetArena(n)
	defer arena.Release()
	inbox := arena.Inboxes()

	awake := make([]bool, n)
	envs := make([]proto.Env, n)
	// All node generators live in one flat slice; rngs must outlive the
	// round loop (protocols hold pointers into it), so it is per-run, not
	// arena scratch.
	rngs := make([]xrand.RNG, n)
	diam := 0
	if cfg.Topo != nil {
		diam = cfg.Topo.Diameter()
	}
	for u := 0; u < n; u++ {
		master.SplitInto(&rngs[u])
		envs[u] = proto.Env{ID: int64(cfg.IDs[u]), N: n, RNG: &rngs[u], Out: arena.Out()}
		if cfg.Topo != nil {
			envs[u].Deg = cfg.Topo.Degree(u)
			envs[u].Diam = diam
		}
	}
	rt := cfg.Rounds
	wake := func(u int) {
		if !awake[u] {
			awake[u] = true
			res.WakeRound[u] = 1
			nodes[u].Init(envs[u])
			if rt != nil {
				rt.Woke(1)
			}
		}
	}
	if cfg.Wake == nil {
		for u := 0; u < n; u++ {
			wake(u)
		}
	}
	for _, u := range cfg.Wake {
		wake(u)
	}

	// degOf and dest abstract over the two wirings: the implicit clique
	// (portmap) and an explicit topology. The closures stay out of the inner
	// loop's allocation profile; dest is never called on an invalid port.
	degOf := func(int) int { return n - 1 }
	dest := func(u, p int) (int, int) { return pm.Dest(u, p) }
	if cfg.Topo != nil {
		degOf = cfg.Topo.Degree
		dest = cfg.Topo.Dest
	}

	var seenPort map[uint64]int // Strict only: port -> last round sent
	if cfg.Strict {
		seenPort = make(map[uint64]int)
	}
	lastActivity := 1

	inj := cfg.Faults
	var dead []bool // crash-stopped nodes (fault injection only)
	if inj != nil {
		dead = make([]bool, n)
	}

	for r := 1; ; r++ {
		if r > maxRounds {
			res.TimedOut = true
			break
		}
		if cfg.MaxMessages > 0 && res.Messages >= cfg.MaxMessages {
			res.Truncated = true
			break
		}
		// Fault hook: adaptive adversary tick, then crash checks, at the
		// round boundary. A node crashed at round r sends and receives
		// nothing from round r on; a sleeping victim never wakes.
		if inj != nil {
			inj.Tick(float64(r))
			for u := 0; u < n; u++ {
				if !dead[u] && inj.CrashedAt(u, float64(r)) {
					dead[u] = true
				}
			}
		}
		// Send phase.
		res.PerRound = append(res.PerRound, 0)
		for u := 0; u < n; u++ {
			if !awake[u] || nodes[u].Halted() || (dead != nil && dead[u]) {
				continue
			}
			for _, s := range nodes[u].Send(r) {
				if s.Port < 0 || s.Port >= degOf(u) {
					return nil, fmt.Errorf("simsync: node %d round %d sent on invalid port %d (degree %d)", u, r, s.Port, degOf(u))
				}
				if cfg.Strict {
					k := uint64(u)<<32 | uint64(uint32(s.Port))
					if last, dup := seenPort[k]; dup && last == r {
						return nil, fmt.Errorf("simsync: node %d round %d sent twice on port %d", u, r, s.Port)
					}
					seenPort[k] = r
				}
				v, q := dest(u, s.Port)
				if cfg.Trace != nil {
					cfg.Trace.RecordSend(r, u, v)
				}
				res.Messages++
				res.Words += int64(s.Msg.Words())
				res.PerRound[r]++
				if rt != nil {
					rt.Send(r, u, s.Msg.Kind, s.Msg.Words())
				}
				copies := 1
				if inj != nil {
					// Fault hook: per-delivery verdict. The message counts as
					// sent either way; only its delivery fate changes.
					switch inj.OnSend(u, v, s.Msg, float64(r)) {
					case faults.Drop:
						copies = 0
					case faults.Duplicate:
						copies = 2
					}
				}
				for c := 0; c < copies; c++ {
					inbox[v] = append(inbox[v], proto.Delivery{Port: q, Msg: s.Msg})
				}
				if rt != nil && copies > 0 {
					rt.Deliver(r, copies)
				}
			}
		}
		if res.PerRound[r] > 0 {
			lastActivity = r
		}
		// Receive phase: wake sleepers, deliver, tick every awake node. The
		// inbox is reset to length zero, not dropped: next round's deliveries
		// reuse its capacity.
		for v := 0; v < n; v++ {
			box := inbox[v]
			inbox[v] = box[:0]
			if dead != nil && dead[v] {
				continue // a crashed node's inbox is lost with it
			}
			if len(box) > 0 && !awake[v] {
				awake[v] = true
				res.WakeRound[v] = r
				nodes[v].Init(envs[v])
				lastActivity = r
				if rt != nil {
					rt.Woke(r)
				}
			}
			if !awake[v] || nodes[v].Halted() {
				continue
			}
			before := nodes[v].Decision()
			nodes[v].Deliver(r, box)
			if nodes[v].Decision() != before {
				lastActivity = r
				if rt != nil {
					rt.Decided(r)
				}
			}
		}
		// Quiescence: every awake node halted or crashed. (Synchronous
		// delivery is same-round, so nothing is in flight, and a sleeping
		// node can never wake once all potential senders have halted.)
		done := true
		for u := 0; u < n; u++ {
			if awake[u] && !nodes[u].Halted() && (dead == nil || !dead[u]) {
				done = false
				break
			}
		}
		if done {
			break
		}
	}
	for u := 0; u < n; u++ {
		res.Decisions[u] = nodes[u].Decision()
	}
	res.Rounds = lastActivity
	inj.Record(&res.Outcome)
	return res, nil
}
