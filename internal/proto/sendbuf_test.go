package proto_test

import (
	"testing"

	"cliquelect/internal/ids"
	"cliquelect/internal/livenet"
	"cliquelect/internal/portmap"
	"cliquelect/internal/proto"
	"cliquelect/internal/simasync"
	"cliquelect/internal/simsync"
	"cliquelect/internal/xrand"
)

// stampLog records, per node, every send a node returned and every
// delivery it received. Each node writes only its own entries, so the log
// is safe under livenet's goroutine per node.
type stampLog struct {
	sent [][]proto.Send
	got  [][]proto.Delivery
}

func newStampLog(n int) *stampLog {
	return &stampLog{sent: make([][]proto.Send, n), got: make([][]proto.Delivery, n)}
}

// stamper is the per-node half shared by both engine adapters: every send
// it builds in env.Out carries the node's ID and a per-call counter.
type stamper struct {
	env   proto.Env
	node  int
	log   *stampLog
	calls int64
}

// send returns fan stamped sends of kind on consecutive ports, built in
// the engine's send buffer, and logs them.
func (s *stamper) send(fan int, kind uint8) []proto.Send {
	s.calls++
	fan = min(fan, s.env.Ports())
	out := s.env.Out.Take(fan)
	for i := range out {
		out[i] = proto.Send{Port: (int(s.calls) + i) % s.env.Ports(), Msg: proto.Message{Kind: kind, A: s.env.ID, B: s.calls}}
	}
	s.log.sent[s.node] = append(s.log.sent[s.node], out...)
	return out
}

// syncStamper sends four stamped messages every round for rounds rounds.
type syncStamper struct {
	stamper
	rounds int
	halted bool
}

func (p *syncStamper) Init(env proto.Env) { p.env = env }

func (p *syncStamper) Send(round int) []proto.Send { return p.send(4, 1) }

func (p *syncStamper) Deliver(round int, inbox []proto.Delivery) {
	p.log.got[p.node] = append(p.log.got[p.node], inbox...)
	p.halted = round >= p.rounds
}

func (p *syncStamper) Decision() proto.Decision { return proto.NonLeader }
func (p *syncStamper) Halted() bool             { return p.halted }

// asyncStamper sends four stamped tokens on waking; a token of kind h > 1
// makes its receiver send two of kind h-1.
type asyncStamper struct{ stamper }

func (p *asyncStamper) Wake(env proto.Env) []proto.Send {
	p.env = env
	return p.send(4, 5)
}

func (p *asyncStamper) Receive(d proto.Delivery) []proto.Send {
	p.log.got[p.node] = append(p.log.got[p.node], d)
	if d.Msg.Kind > 1 {
		return p.send(2, d.Msg.Kind-1)
	}
	return nil
}

func (p *asyncStamper) Decision() proto.Decision { return proto.NonLeader }

// TestSharedSendBufAliasing holds every engine to the send-buffer
// contract: each node builds its sends in env.Out, which the simulators
// share among all nodes of a run and livenet gives each node alone, and
// every delivery must still carry the stamp, sender ID and per-call
// counter, of the send the wiring maps it back to. An engine that called
// another node before it consumed a node's slice would deliver the later
// node's stamps instead.
func TestSharedSendBufAliasing(t *testing.T) {
	const n = 32
	assign := ids.Random(ids.LogUniverse(n), n, xrand.New(5))
	pm := portmap.NewSharedPerm(n, xrand.New(6))
	// Two nodes wake spontaneously; every other node is woken by a message,
	// so its Wake and its first Receive return sends back to back.
	roots := []int{0, 7}
	for _, engine := range []struct {
		name string
		run  func(log *stampLog) error
	}{
		{"simsync", func(log *stampLog) error {
			_, err := simsync.Run(simsync.Config{N: n, IDs: assign, Ports: pm, Seed: 1},
				fill(func(u int) simsync.Protocol {
					return &syncStamper{stamper: stamper{node: u, log: log}, rounds: 6}
				}))
			return err
		}},
		{"simasync", func(log *stampLog) error {
			_, err := simasync.Run(simasync.Config{
				N: n, IDs: assign, Ports: pm, Seed: 1,
				Wake: simasync.SubsetAtZero(roots), Delays: simasync.UniformDelay{Lo: 0.05},
			}, fill(func(u int) simasync.Protocol { return &asyncStamper{stamper{node: u, log: log}} }))
			return err
		}},
		{"livenet", func(log *stampLog) error {
			_, err := livenet.Run(livenet.Config{N: n, IDs: assign, Ports: pm, Wake: roots, Seed: 1},
				fill(func(u int) simasync.Protocol { return &asyncStamper{stamper{node: u, log: log}} }))
			return err
		}},
	} {
		t.Run(engine.name, func(t *testing.T) {
			log := newStampLog(n)
			if err := engine.run(log); err != nil {
				t.Fatal(err)
			}
			// Every send is delivered exactly once, fault-free: count each
			// node's sends by (port, message) and check every delivery off.
			unsent := make([]map[proto.Send]int, n)
			total := 0
			for u, sends := range log.sent {
				unsent[u] = make(map[proto.Send]int)
				for _, s := range sends {
					unsent[u][s]++
				}
				total += len(sends)
			}
			if total == 0 {
				t.Fatal("no node sent anything")
			}
			for v, got := range log.got {
				for _, d := range got {
					u, p := pm.Dest(v, d.Port)
					if d.Msg.A != int64(assign[u]) {
						t.Fatalf("node %d port %d: delivery stamped with ID %d, the wiring leads back to node %d (ID %d)",
							v, d.Port, d.Msg.A, u, assign[u])
					}
					s := proto.Send{Port: p, Msg: d.Msg}
					if unsent[u][s] == 0 {
						t.Fatalf("node %d port %d: delivery %+v matches no send of node %d on port %d", v, d.Port, d.Msg, u, p)
					}
					unsent[u][s]--
					total--
				}
			}
			if total != 0 {
				t.Fatalf("%d sends never delivered", total)
			}
		})
	}
}
