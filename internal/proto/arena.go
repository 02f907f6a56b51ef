package proto

import (
	"sync"

	"cliquelect/internal/xrand"
)

// This file holds the engines' hot-path scratch machinery: a pooled arena of
// per-node delivery buffers and the send buffer the nodes build their sends
// in. Both exist to keep the simulators' round/event loops allocation-free
// in steady state — large sweeps run the same engine back to back thousands
// of times, and recycling the O(n) scratch across runs (not just across
// rounds) is what lets RunMany hold a stable memory footprint at n >= 10^5.

// Arena is a run's reusable scratch: one delivery buffer per node and one
// send buffer shared by all of them, retained across rounds (capacity
// survives the per-round reset) and across runs (arenas are pooled).
// Acquire one with GetArena at run start and return it with Release when
// the run's Result has been assembled; nothing reachable from an Arena may
// be retained by a Result, a Protocol, or any caller after Release.
type Arena struct {
	inboxes [][]Delivery
	out     SendBuf
}

var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// GetArena returns a pooled arena with at least n inbox buffers, each reset
// to length zero. The buffers keep whatever capacity earlier runs grew them
// to, so a warm arena serves a same-shape run without allocating.
func GetArena(n int) *Arena {
	a := arenaPool.Get().(*Arena)
	if cap(a.inboxes) < n {
		a.inboxes = make([][]Delivery, n)
	}
	a.inboxes = a.inboxes[:n]
	for i := range a.inboxes {
		a.inboxes[i] = a.inboxes[i][:0]
	}
	return a
}

// Inboxes returns the arena's per-node delivery buffers.
func (a *Arena) Inboxes() [][]Delivery { return a.inboxes }

// Out returns the arena's send buffer, the Env.Out of every node of the
// run.
func (a *Arena) Out() *SendBuf { return &a.out }

// Release returns the arena to the pool. The caller must not touch the
// arena or any slice obtained from it afterwards.
func (a *Arena) Release() { arenaPool.Put(a) }

// SendBuf is the engine-owned buffer a node builds its sends in, handed to
// it as Env.Out. Take, First, To, ToSample and One replace what the buffer
// held; Add appends to it. The engines consume a callback's sends before
// they call any other node on the same buffer, so the simulators give every
// node of a run one SendBuf, and livenet, whose nodes run concurrently, one
// per node.
// A protocol builds each callback's sends here, returns them and never
// keeps the slice. Capacity survives across calls and runs, so a warm
// buffer serves a broadcast without allocating.
type SendBuf struct {
	buf   []Send
	ports []int // ToSample's drawn ports
}

// Take returns the buffer resized to length k, for a caller that fills
// every slot; Take(0) starts an empty buffer for Add.
func (b *SendBuf) Take(k int) []Send {
	if cap(b.buf) < k {
		b.buf = make([]Send, k)
	}
	b.buf = b.buf[:k]
	return b.buf
}

// Add appends one send of m on port to what the buffer holds.
func (b *SendBuf) Add(port int, m Message) {
	b.buf = append(b.buf, Send{Port: port, Msg: m})
}

// Sends returns what the buffer holds: the sends built since the last
// Take, or by the last helper.
func (b *SendBuf) Sends() []Send { return b.buf }

// First returns m on each of the ports 0..k-1 (a broadcast when k is the
// node's port count).
func (b *SendBuf) First(k int, m Message) []Send {
	out := b.Take(k)
	for p := range out {
		out[p] = Send{Port: p, Msg: m}
	}
	return out
}

// To returns m on each of ports, in order.
func (b *SendBuf) To(ports []int, m Message) []Send {
	out := b.Take(len(ports))
	for i, p := range ports {
		out[i] = Send{Port: p, Msg: m}
	}
	return out
}

// ToSample returns m on k distinct ports drawn from 0..ports-1 by
// rng.Sample, in draw order. The drawn ports live in the buffer's own
// scratch, so a one-shot fan-out allocates nothing once the buffer is warm.
func (b *SendBuf) ToSample(rng *xrand.RNG, ports, k int, m Message) []Send {
	b.ports = rng.Sample(b.ports[:0], ports, k)
	return b.To(b.ports, m)
}

// One returns the single send of m on port.
func (b *SendBuf) One(port int, m Message) []Send {
	out := b.Take(1)
	out[0] = Send{Port: port, Msg: m}
	return out
}
