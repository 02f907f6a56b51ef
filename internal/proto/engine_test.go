package proto_test

import (
	"fmt"
	"reflect"
	"regexp"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cliquelect/internal/core"
	"cliquelect/internal/ids"
	"cliquelect/internal/livenet"
	"cliquelect/internal/proto"
	"cliquelect/internal/simasync"
	"cliquelect/internal/simsync"
	"cliquelect/internal/xrand"
)

// probe is a node for both engine kinds that counts its start in started
// and returns the sends built by out from its first callback: from Send in
// round 1 on simsync, from Wake on simasync and livenet. A nil out sends
// nothing.
type probe struct {
	env     proto.Env
	started *atomic.Int64
	out     func(env proto.Env) []proto.Send
	done    bool
}

func (p *probe) Init(env proto.Env) {
	p.env = env
	p.started.Add(1)
}

func (p *probe) sends() []proto.Send {
	if p.out == nil {
		return nil
	}
	return p.out(p.env)
}

func (p *probe) Send(int) []proto.Send {
	p.done = true
	return p.sends()
}

func (p *probe) Wake(env proto.Env) []proto.Send {
	p.Init(env)
	return p.sends()
}

func (p *probe) Deliver(int, []proto.Delivery)       { p.done = true }
func (p *probe) Halted() bool                        { return p.done }
func (p *probe) Receive(proto.Delivery) []proto.Send { return nil }
func (p *probe) Decision() proto.Decision            { return proto.NonLeader }

// engine runs n probe nodes on one engine with the given wake set and
// reports which nodes woke, as that engine's Result records it.
type engine struct {
	name string
	run  func(n int, wake []int, mk func(u int) *probe) (woke []bool, err error)
}

var engines = []engine{
	{"simsync", func(n int, wake []int, mk func(u int) *probe) ([]bool, error) {
		res, err := simsync.Run(simsync.Config{N: n, IDs: probeIDs(n), Seed: 1, Wake: wake},
			fill(func(u int) simsync.Protocol { return mk(u) }))
		if err != nil {
			return nil, err
		}
		woke := make([]bool, n)
		for u, r := range res.WakeRound {
			if r != 0 && r != 1 {
				return nil, fmt.Errorf("node %d woke in round %d, want 1", u, r)
			}
			woke[u] = r == 1
		}
		return woke, nil
	}},
	{"simasync", func(n int, wake []int, mk func(u int) *probe) ([]bool, error) {
		res, err := simasync.Run(simasync.Config{N: n, IDs: probeIDs(n), Seed: 1, Wake: simasync.SubsetAtZero(wake)},
			fill(func(u int) simasync.Protocol { return mk(u) }))
		if err != nil {
			return nil, err
		}
		woke := make([]bool, n)
		for u, at := range res.WakeTime {
			if at != -1 && at != 0 {
				return nil, fmt.Errorf("node %d woke at time %v, want 0", u, at)
			}
			woke[u] = at == 0
		}
		return woke, nil
	}},
	{"livenet", func(n int, wake []int, mk func(u int) *probe) ([]bool, error) {
		res, err := livenet.Run(livenet.Config{N: n, IDs: probeIDs(n), Seed: 1, Wake: wake},
			fill(func(u int) simasync.Protocol { return mk(u) }))
		if err != nil {
			return nil, err
		}
		return res.Awake, nil
	}},
}

// fill is the Factory of a test whose nodes differ by index: it sets node
// u to mk(u). Protocol factories read no index; these fakes do.
func fill[P any](mk func(u int) P) func(nodes []P) {
	return func(nodes []P) {
		for u := range nodes {
			nodes[u] = mk(u)
		}
	}
}

func probeIDs(n int) ids.Assignment { return ids.Random(ids.LogUniverse(n), n, xrand.New(3)) }

// noLeak fails the test unless the goroutine count falls back to base:
// livenet must join every node goroutine before Run returns, errors too.
func noLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWakeContract holds every engine to one wake-up contract: a nil wake
// set wakes every node, an explicit set wakes exactly its nodes, and a
// non-nil empty set or an out-of-range node is an error before any node
// starts.
func TestWakeContract(t *testing.T) {
	const n = 16
	for _, e := range engines {
		for _, tc := range []struct {
			name string
			wake []int
			want []int // nil: an error
		}{
			{"nil", nil, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
			{"set", []int{3, 9, 3}, []int{3, 9}},
			{"empty", []int{}, nil},
			{"out-of-range", []int{2, n}, nil},
			{"negative", []int{-1}, nil},
		} {
			t.Run(e.name+"/"+tc.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				var started atomic.Int64
				woke, err := e.run(n, tc.wake, func(int) *probe { return &probe{started: &started} })
				noLeak(t, base)
				if tc.want == nil {
					if err == nil {
						t.Fatalf("wake set %v accepted", tc.wake)
					}
					if s := started.Load(); s != 0 {
						t.Fatalf("wake set %v rejected after %d nodes started", tc.wake, s)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				want := make([]bool, n)
				for _, u := range tc.want {
					want[u] = true
				}
				for u := range want {
					if woke[u] != want[u] {
						t.Fatalf("node %d awake = %v, want %v (wake set %v)", u, woke[u], want[u], tc.wake)
					}
				}
				if s := started.Load(); s != int64(len(tc.want)) {
					t.Fatalf("%d nodes started, want %d", s, len(tc.want))
				}
			})
		}
	}
}

// TestInvalidPortFails holds every engine to failing a run in which nodes
// send on port n-1, one past their last: every node sends on port 0, which
// another node receives, and on port n-1, so on livenet the violations
// race from every goroutine at once.
func TestInvalidPortFails(t *testing.T) {
	const n = 16
	want := regexp.MustCompile(fmt.Sprintf(`^[a-z]+: node \d+ (round 1 )?sent on invalid port %d \(degree %d\)$`, n-1, n-1))
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			var started atomic.Int64
			_, err := e.run(n, nil, func(u int) *probe {
				return &probe{started: &started, out: func(env proto.Env) []proto.Send {
					out := env.Out.Take(2)
					out[0] = proto.Send{Port: 0, Msg: proto.Message{Kind: 1}}
					out[1] = proto.Send{Port: n - 1, Msg: proto.Message{Kind: 1}}
					return out
				}}
			})
			noLeak(t, base)
			if err == nil || !want.MatchString(err.Error()) {
				t.Fatalf("err = %v, want it to match %s", err, want)
			}
		})
	}
}

// TestFactoryContract holds every engine to the factory contract over
// back-to-back runs of different sizes and specs: every node of a run is an
// instance of its own, and each is still in the state its factory builds
// when Init or Wake first sees it. A factory that handed out a slab kept
// from an earlier run without resetting it, or one instance to two nodes,
// fails here; under -race, so would two livenet nodes sharing state.
func TestFactoryContract(t *testing.T) {
	syncSpecs := map[string]simsync.Factory{
		"tradeoff":    core.NewTradeoff(3),
		"afekgafni":   core.NewAfekGafni(2),
		"kuttenmoses": core.NewKuttenMoses(),
		"explicit":    core.NewExplicit(core.NewTradeoff(4)),
	}
	asyncSpecs := map[string]simasync.Factory{
		"asynctradeoff":  core.NewAsyncTradeoff(3),
		"asyncafekgafni": core.NewAsyncAfekGafni(),
	}
	for _, n := range []int{16, 48, 8, 33} {
		for name, f := range syncSpecs {
			_, err := simsync.Run(simsync.Config{N: n, IDs: probeIDs(n), Seed: uint64(n)},
				audited(t, "simsync/"+name, f, func(p simsync.Protocol, built any) simsync.Protocol {
					return &syncAudit{p, built, t, "simsync/" + name}
				}))
			if err != nil {
				t.Fatal(err)
			}
		}
		for name, f := range asyncSpecs {
			wrap := func(engine string) func(p simasync.Protocol, built any) simasync.Protocol {
				return func(p simasync.Protocol, built any) simasync.Protocol {
					return &asyncAudit{p, built, t, engine + "/" + name}
				}
			}
			if _, err := simasync.Run(simasync.Config{N: n, IDs: probeIDs(n), Seed: uint64(n)},
				audited(t, "simasync/"+name, f, wrap("simasync"))); err != nil {
				t.Fatal(err)
			}
			if _, err := livenet.Run(livenet.Config{N: n, IDs: probeIDs(n), Seed: uint64(n)},
				audited(t, "livenet/"+name, f, wrap("livenet"))); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// audited wraps factory f for one run. After f fills the nodes it checks
// that no two share an instance, and it copies the state of one more
// instance built by f, before any node starts, as the state every node
// must start from; wrap puts each node behind a checker that compares the
// two when the engine first starts the node.
func audited[P comparable](t *testing.T, name string, f func([]P), wrap func(p P, built any) P) func([]P) {
	return func(nodes []P) {
		f(nodes)
		extra := make([]P, 1)
		f(extra)
		built := reflect.ValueOf(extra[0]).Elem().Interface()
		owner := make(map[P]int, len(nodes))
		for u, p := range nodes {
			if v, shared := owner[p]; shared {
				t.Errorf("%s n=%d: nodes %d and %d share one instance", name, len(nodes), v, u)
			}
			owner[p] = u
			nodes[u] = wrap(p, built)
		}
	}
}

// checkBuilt reports a node whose instance p, started with env, is not in
// the built state.
func checkBuilt(t *testing.T, name string, env proto.Env, p, built any) {
	if state := reflect.ValueOf(p).Elem().Interface(); !reflect.DeepEqual(state, built) {
		t.Errorf("%s n=%d: node with ID %d started from %+v, not from its built state %+v",
			name, env.N, env.ID, state, built)
	}
}

type syncAudit struct {
	simsync.Protocol
	built any
	t     *testing.T
	name  string
}

func (a *syncAudit) Init(env proto.Env) {
	checkBuilt(a.t, a.name, env, a.Protocol, a.built)
	a.Protocol.Init(env)
}

type asyncAudit struct {
	simasync.Protocol
	built any
	t     *testing.T
	name  string
}

func (a *asyncAudit) Wake(env proto.Env) []proto.Send {
	checkBuilt(a.t, a.name, env, a.Protocol, a.built)
	return a.Protocol.Wake(env)
}
