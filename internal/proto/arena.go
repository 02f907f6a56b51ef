package proto

import "sync"

// This file holds the engines' hot-path scratch machinery: a pooled arena of
// per-node delivery buffers and a reusable send buffer. Both exist to keep
// the simulators' round/event loops allocation-free in steady state — large
// sweeps run the same engine back to back thousands of times, and recycling
// the O(n) scratch across runs (not just across rounds) is what lets
// RunMany hold a stable memory footprint at n >= 10^5.

// Arena is a run's reusable scratch: one delivery buffer per node, retained
// across rounds (capacity survives the per-round reset) and across runs
// (arenas are pooled). Acquire one with GetArena at run start and return it
// with Release when the run's Result has been assembled; nothing reachable
// from an Arena may be retained by a Result, a Protocol, or any caller after
// Release.
type Arena struct {
	inboxes [][]Delivery
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

// Release returns the arena to the pool. The caller must not touch the
// arena or any slice obtained from it afterwards.
func (a *Arena) Release() { arenaPool.Put(a) }

// SendBuf is a protocol-owned reusable send buffer. The engines consume the
// slice a Protocol returns before invoking that instance again, so a
// protocol may hand out the same backing array every call; Take returns it
// resized to k (growing capacity only when needed, e.g. to Ports() for a
// broadcast round). Protocols on a hot path keep one SendBuf field instead
// of allocating a fresh []Send per Send/Receive call.
type SendBuf struct {
	buf []Send
}

// Take returns the buffer resized to length k.
func (b *SendBuf) Take(k int) []Send {
	if cap(b.buf) < k {
		b.buf = make([]Send, k)
	}
	return b.buf[:k]
}
