// Package livenet runs asynchronous clique protocols on a real concurrent
// substrate: one goroutine per node, an unbounded mailbox per node, and a
// shared port mapping guarded by a mutex. It drives the same
// simasync.Protocol implementations as the deterministic simulator, so every
// algorithm in internal/core can be executed under genuine goroutine
// interleavings — the integration tests use this to check that correctness
// does not depend on the simulator's scheduling.
//
// Unlike simasync, livenet is intentionally nondeterministic and does not
// measure time; it reports message counts and decisions. Message delays are
// whatever the Go scheduler produces (plus per-link FIFO, which mailbox
// ordering provides for free since each sender enqueues directly).
//
// Termination uses quiescence counting: every enqueued item increments a
// WaitGroup that is decremented only after the receiving node has fully
// processed the item (including enqueuing any messages it triggered, which
// happen-before the decrement) — when the count reaches zero, no work
// remains anywhere.
package livenet

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cliquelect/internal/ids"
	"cliquelect/internal/portmap"
	"cliquelect/internal/proto"
	"cliquelect/internal/simasync"
	"cliquelect/internal/xrand"
)

// Config describes one live execution.
type Config struct {
	// N is the number of nodes.
	N int
	// IDs assigns an ID per node; required, length N.
	IDs ids.Assignment
	// Ports is the port mapping (shared; livenet serializes access). nil
	// defaults to a SharedPerm mapping seeded from Seed.
	Ports portmap.Map
	// Wake lists the externally woken nodes. nil wakes every node; a
	// non-nil set must be nonempty.
	Wake []int
	// Seed drives node RNGs and the default port map.
	Seed uint64
	// MaxMessages aborts runaway executions; 0 defaults to 64*N*N + 1<<16.
	MaxMessages int64
}

// Result summarizes one live execution: Messages, Decisions and Truncated
// (MaxMessages was reached) of the shared outcome, plus the wake record.
type Result struct {
	proto.Outcome
	// Awake[u] reports whether node u was ever activated.
	Awake []bool
}

func (r *Result) woke(u int) bool { return r.Awake[u] }

// AllAwake reports whether every node was activated.
func (r *Result) AllAwake() bool { return r.AllWoke(r.woke) }

// Validate checks implicit leader election (proto.Outcome.CheckElection).
func (r *Result) Validate() error { return r.CheckElection(r.woke) }

type itemKind uint8

const (
	itemWake itemKind = iota + 1
	itemDeliver
	itemStop
)

type item struct {
	kind itemKind
	d    proto.Delivery
}

// mailbox is an unbounded FIFO queue; unbounded so that cyclic send patterns
// can never deadlock the node goroutines.
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	items []item
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(it item) {
	mb.mu.Lock()
	mb.items = append(mb.items, it)
	mb.mu.Unlock()
	mb.cond.Signal()
}

func (mb *mailbox) take() item {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for len(mb.items) == 0 {
		mb.cond.Wait()
	}
	it := mb.items[0]
	mb.items = mb.items[1:]
	return it
}

// lockedMap serializes access to a port mapping (LazyRandom materializes
// lazily and is not otherwise safe for concurrent use).
type lockedMap struct {
	mu sync.Mutex
	m  portmap.Map
}

func (lm *lockedMap) dest(u, p int) (int, int) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return lm.m.Dest(u, p)
}

// Run executes the configured protocol on the live runtime until
// quiescence.
func Run(cfg Config, factory simasync.Factory) (*Result, error) {
	n := cfg.N
	if n < 1 {
		return nil, fmt.Errorf("livenet: N = %d", n)
	}
	if len(cfg.IDs) != n {
		return nil, fmt.Errorf("livenet: %d IDs for %d nodes", len(cfg.IDs), n)
	}
	if cfg.Wake != nil && len(cfg.Wake) == 0 {
		return nil, fmt.Errorf("livenet: empty wake set")
	}
	for _, u := range cfg.Wake {
		if u < 0 || u >= n {
			return nil, fmt.Errorf("livenet: wake of invalid node %d", u)
		}
	}
	master := xrand.New(cfg.Seed)
	pm := cfg.Ports
	if pm == nil && n >= 2 {
		pm = portmap.NewSharedPerm(n, master.Split())
	}
	lm := &lockedMap{m: pm}
	maxMessages := cfg.MaxMessages
	if maxMessages == 0 {
		maxMessages = 64*int64(n)*int64(n) + 1<<16
	}

	nodes := make([]simasync.Protocol, n)
	envs := make([]proto.Env, n)
	boxes := make([]*mailbox, n)
	// The nodes run concurrently, so each gets its own send buffer; its
	// goroutine consumes every callback's sends before the next callback.
	outs := make([]proto.SendBuf, n)
	for u := 0; u < n; u++ {
		nodes[u] = factory(u)
		envs[u] = proto.Env{ID: int64(cfg.IDs[u]), N: n, RNG: master.Split(), Out: &outs[u]}
		boxes[u] = newMailbox()
	}

	var (
		pending   sync.WaitGroup // in-flight items (messages + wakes)
		workers   sync.WaitGroup // node goroutines
		msgCount  atomic.Int64
		truncated atomic.Bool
		badOnce   sync.Once // the first send on an invalid port fails the run
		bad       error
	)
	awake := make([]bool, n) // owned by each node's goroutine; read after join

	// dispatch resolves and enqueues a node's outgoing messages. A send on
	// an invalid port is recorded and not delivered; the run still drains
	// to quiescence so every goroutine is joined before Run returns it.
	dispatch := func(u int, outs []proto.Send) {
		for _, s := range outs {
			if s.Port < 0 || s.Port >= n-1 {
				badOnce.Do(func() {
					bad = fmt.Errorf("livenet: node %d sent on invalid port %d (degree %d)", u, s.Port, n-1)
				})
				continue
			}
			if msgCount.Add(1) > maxMessages {
				truncated.Store(true)
				continue
			}
			v, q := lm.dest(u, s.Port)
			pending.Add(1)
			boxes[v].put(item{kind: itemDeliver, d: proto.Delivery{Port: q, Msg: s.Msg}})
		}
	}

	for u := 0; u < n; u++ {
		u := u
		workers.Add(1)
		go func() {
			defer workers.Done()
			for {
				it := boxes[u].take()
				switch it.kind {
				case itemStop:
					return
				case itemWake:
					if !awake[u] {
						awake[u] = true
						dispatch(u, nodes[u].Wake(envs[u]))
					}
					pending.Done()
				case itemDeliver:
					if !awake[u] {
						awake[u] = true
						dispatch(u, nodes[u].Wake(envs[u]))
					}
					dispatch(u, nodes[u].Receive(it.d))
					pending.Done()
				}
			}
		}()
	}

	wake := func(u int) {
		pending.Add(1)
		boxes[u].put(item{kind: itemWake})
	}
	if cfg.Wake == nil {
		for u := 0; u < n; u++ {
			wake(u)
		}
	}
	for _, u := range cfg.Wake {
		wake(u)
	}
	pending.Wait()
	for u := 0; u < n; u++ {
		boxes[u].put(item{kind: itemStop})
	}
	workers.Wait()
	if bad != nil {
		return nil, bad
	}

	res := &Result{
		Outcome: proto.Outcome{
			Messages:  msgCount.Load(),
			Decisions: make([]proto.Decision, n),
			Truncated: truncated.Load(),
		},
		Awake: awake,
	}
	for u := 0; u < n; u++ {
		res.Decisions[u] = nodes[u].Decision()
	}
	if res.Truncated {
		res.Messages = maxMessages
	}
	return res, nil
}
