// Package portmap implements the port mappings of the paper's clique model
// (Section 2): each of the n nodes has n-1 ports; a port mapping is a
// bijective pairing p((u,i)) = (v,j) with p((v,j)) = (u,i), assigning each
// unordered node pair exactly one link. Nodes do not know where their ports
// lead until a message crosses them.
//
// Four implementations cover the paper's needs:
//
//   - Canonical: the fixed algebraic involution v=(u+p+1) mod n. O(1) memory.
//   - SharedPerm: Canonical composed with a random offset permutation shared
//     by all nodes. O(n) memory; scrambles deterministic protocols' port
//     choices while remaining cheap at large n.
//   - LazyRandom: a uniformly random port mapping materialized lazily, port
//     by port, on first use. While its dense tables fit in denseBudget
//     (n <= 2048), membership ("is this port wired?", "are these nodes
//     linked?") lives in two bitsets and far ends in one uint32 per port;
//     above that both are hashed and memory is O(#used links), so
//     uniformly-random wiring scales to cliques whose full mapping would
//     not fit in memory.
//   - Adaptive: the lower-bound adversary's mapping (Lemma 3.3): unused
//     ports are wired at first use by a caller-supplied strategy, subject to
//     feasibility. This is admissible against deterministic algorithms
//     because they must work under every port mapping.
package portmap

import (
	"fmt"
	"math/bits"
	"sync"

	"cliquelect/internal/flatmap"
	"cliquelect/internal/xrand"
)

// Map resolves port endpoints. Implementations must behave as a fixed
// bijective involution: if Dest(u,p) = (v,q) then Dest(v,q) = (u,p), v != u,
// and distinct ports of u lead to distinct nodes. Dest may materialize the
// wiring lazily but must stay consistent across calls.
type Map interface {
	// N returns the number of nodes.
	N() int
	// Dest returns the node and arrival port on the far end of (u, p).
	Dest(u, p int) (v, q int)
}

// Canonical is the O(1)-memory involution: port p of node u (0-based)
// connects to node (u+p+1) mod n, arriving on port n-2-p.
type Canonical struct {
	n int
}

// NewCanonical returns the canonical mapping for n >= 2 nodes.
func NewCanonical(n int) *Canonical {
	if n < 2 {
		panic(fmt.Sprintf("portmap: need n >= 2, got %d", n))
	}
	return &Canonical{n: n}
}

// N implements Map.
func (c *Canonical) N() int { return c.n }

// Dest implements Map.
func (c *Canonical) Dest(u, p int) (int, int) {
	checkPort(c.n, u, p)
	offset := p + 1
	v := (u + offset) % c.n
	return v, c.n - 1 - offset
}

// SharedPerm composes the canonical map with one random permutation of the
// offsets {1..n-1} shared by all nodes: port p of node u leads to
// (u + perm[p]) mod n. All nodes see the same scrambled offset order, which
// is a legal (if correlated) random port mapping using only O(n) memory.
type SharedPerm struct {
	n    int
	perm []int // perm[p] = offset in 1..n-1
	inv  []int // inv[offset] = p
}

// NewSharedPerm builds a shared-permutation mapping from the given RNG.
func NewSharedPerm(n int, rng *xrand.RNG) *SharedPerm {
	if n < 2 {
		panic(fmt.Sprintf("portmap: need n >= 2, got %d", n))
	}
	base := rng.Perm(n - 1) // values 0..n-2
	perm := make([]int, n-1)
	inv := make([]int, n) // indexed by offset 1..n-1
	for p, b := range base {
		offset := b + 1
		perm[p] = offset
		inv[offset] = p
	}
	return &SharedPerm{n: n, perm: perm, inv: inv}
}

// N implements Map.
func (s *SharedPerm) N() int { return s.n }

// Dest implements Map.
func (s *SharedPerm) Dest(u, p int) (int, int) {
	checkPort(s.n, u, p)
	offset := s.perm[p]
	v := (u + offset) % s.n
	return v, s.inv[s.n-offset]
}

// endpoint encodes (node, port) into a single key.
func endpoint(u, p int) uint64 { return uint64(u)<<32 | uint64(uint32(p)) }

// link encodes an unordered node pair.
func link(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(uint32(v))
}

// denseBudget caps the largest of a lazy mapping's dense tables, the far-end
// table, in bytes; the two membership bitsets add a sixteenth of it. Below
// it (n <= 2048) the far end of port (u,p) is one uint32 at u*(n-1)+p,
// packed v<<16 | q, and membership is one bit per port and one per ordered
// node pair: wiring is two stores, resolving and each membership question
// one load, with no hashing, probing or growth, and a cold table is a
// single allocation. The ports bitset says which far-table entries are
// valid, so the far table is never cleared and a pooled one costs nothing
// to reuse. Above it the tables would grow quadratically while a run
// touches only a sparse fraction of the clique, so membership and far ends
// are hashed and memory stays O(#used links) for the million-node sweeps.
const denseBudget = 16 << 20

// denseSizes returns the lengths of an n-node mapping's dense tables, the
// far-end table in entries and the ports and pairs bitsets in words, and
// whether the far table fits in denseBudget. The fit is tested by division
// before anything is multiplied, so no size wraps, with a 32-bit int too:
// past the budget it returns zeros and false.
func denseSizes(n int) (far, ports, pairs int, fits bool) {
	if n < 1 || n-1 > denseBudget/4/n {
		return 0, 0, 0, false
	}
	far = n * (n - 1)
	return far, (far + 63) / 64, (n*n + 63) / 64, true
}

// denseFits reports whether an n-node mapping's far-end table fits in
// denseBudget.
func denseFits(n int) bool {
	_, _, _, fits := denseSizes(n)
	return fits
}

// lazyState is the shared machinery of LazyRandom and Adaptive: consistent
// lazy wiring with feasibility bookkeeping. The far ends and the membership
// questions live in dense tables (or, above denseBudget, in flatmap's
// open-addressing map and set) — the lazy mappings are the engines' single
// hottest data structure — but lazyState consumes randomness only through
// the membership questions, so the RNG draw sequence (and hence every
// execution) is identical whichever representation answers them, and
// identical to the map-backed one they replaced.
type lazyState struct {
	n   int
	rng *xrand.RNG
	deg []int // wired links per node

	dense bool
	far   []uint32       // dense: entry u*(n-1)+p is v<<16|q, valid iff ports has the bit
	ports []uint64       // dense: bit u*(n-1)+p set when port (u,p) is wired
	pairs []uint64       // dense: bit u*n+v set when link {u,v} is wired, both orders
	wired flatmap.U64Map // hashed: endpoint -> endpoint (both directions)
	links flatmap.U64Set // hashed: unordered pairs already wired
}

func (s *lazyState) init(n int, rng *xrand.RNG) {
	s.initRepr(n, rng, denseFits(n))
}

// initRepr is init with the representation chosen by the caller; the tests
// drive both at one n through it. Each representation drops the other's
// tables, so a mapping never keeps alive what an earlier run of its pool
// class (n = 2048 and 3000 share one) grew in the other.
func (s *lazyState) initRepr(n int, rng *xrand.RNG, dense bool) {
	if n < 2 {
		panic(fmt.Sprintf("portmap: need n >= 2, got %d", n))
	}
	s.n = n
	s.rng = rng
	s.dense = dense
	if dense {
		size, ports, pairs, fits := denseSizes(n)
		if !fits {
			panic(fmt.Sprintf("portmap: n = %d is too large for dense tables", n))
		}
		if cap(s.far) < size {
			s.far = make([]uint32, size)
		} else {
			s.far = s.far[:size] // stale entries stay: ports masks them
		}
		s.ports = resize(s.ports, ports)
		s.pairs = resize(s.pairs, pairs)
		s.wired, s.links = flatmap.U64Map{}, flatmap.U64Set{}
	} else {
		s.far, s.ports, s.pairs = nil, nil, nil
		s.wired.Reset()
		s.links.Reset()
	}
	s.deg = resize(s.deg, n)
}

// resize returns a zeroed slice of length n, reusing b's storage when it is
// large enough. Only the first n elements are cleared.
func resize[T uint64 | int](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
	return b
}

func hasBit(b []uint64, i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

func setBit(b []uint64, i int) { b[i>>6] |= 1 << (i & 63) }

// portWired reports whether port (u,p) is already wired.
func (s *lazyState) portWired(u, p int) bool {
	if s.dense {
		return hasBit(s.ports, u*(s.n-1)+p)
	}
	_, used := s.wired.Get(endpoint(u, p))
	return used
}

// connected reports whether the link {u,v} is already wired.
func (s *lazyState) connected(u, v int) bool {
	if s.dense {
		return hasBit(s.pairs, u*s.n+v)
	}
	return s.links.Has(link(u, v))
}

// freePort samples a uniformly random unwired port of v by rejection. v must
// have at least one free port.
func (s *lazyState) freePort(v int) int {
	if s.deg[v] >= s.n-1 {
		panic(fmt.Sprintf("portmap: node %d has no free ports", v))
	}
	for {
		q := s.rng.Intn(s.n - 1)
		if !s.portWired(v, q) {
			return q
		}
	}
}

// wire connects (u,p) <-> (v,q).
func (s *lazyState) wire(u, p, v, q int) {
	if s.dense {
		i, j := u*(s.n-1)+p, v*(s.n-1)+q
		s.far[i] = uint32(v<<16 | q)
		s.far[j] = uint32(u<<16 | p)
		setBit(s.ports, i)
		setBit(s.ports, j)
		setBit(s.pairs, u*s.n+v)
		setBit(s.pairs, v*s.n+u)
	} else {
		s.wired.Put(endpoint(u, p), endpoint(v, q))
		s.wired.Put(endpoint(v, q), endpoint(u, p))
		s.links.Add(link(u, v))
	}
	s.deg[u]++
	s.deg[v]++
}

// resolve returns the wired far end of (u,p) if present. A dense mapping
// reads the far table only for ports its bitset says are wired.
func (s *lazyState) resolve(u, p int) (int, int, bool) {
	if s.dense {
		i := u*(s.n-1) + p
		if !hasBit(s.ports, i) {
			return 0, 0, false
		}
		e := s.far[i]
		return int(e >> 16), int(e & 0xffff), true
	}
	e, ok := s.wired.Get(endpoint(u, p))
	if !ok {
		return 0, 0, false
	}
	return int(e >> 32), int(uint32(e)), true
}

// LazyRandom is a uniformly random port mapping, materialized lazily. Every
// unwired port of u leads to a uniformly random node not yet linked to u,
// arriving on a uniformly random free port of that node. This realizes the
// same distribution as drawing the full random mapping up front, restricted
// to the ports actually used.
type LazyRandom struct {
	s lazyState
}

// lazyPools recycle LazyRandom mappings between runs, one pool per size
// class bits.Len(n). The wiring tables of a large run reach megabytes;
// re-growing them from scratch for every cell of a sweep costs more than
// the wiring itself, so engines that construct the default mapping return
// it with Release when the run ends. Classing by n keeps a small run from
// drawing (and clearing) tables a large one grew.
var lazyPools [bits.UintSize]sync.Pool

// NewLazyRandom returns a lazy uniform mapping driven by the given RNG,
// reusing pooled table capacity from released mappings of a similar n when
// available.
func NewLazyRandom(n int, rng *xrand.RNG) *LazyRandom {
	m, _ := lazyPools[sizeClass(n)].Get().(*LazyRandom)
	if m == nil {
		m = new(LazyRandom)
	}
	m.s.init(n, rng)
	return m
}

func sizeClass(n int) int { return bits.Len(uint(max(n, 0))) }

// Release returns the mapping's tables to the pool. Only the owner that
// constructed the mapping may call it, and must not use the mapping (or
// hand out its wiring) afterwards.
func (m *LazyRandom) Release() {
	m.s.rng = nil
	lazyPools[sizeClass(m.s.n)].Put(m)
}

// N implements Map.
func (m *LazyRandom) N() int { return m.s.n }

// Dest implements Map.
func (m *LazyRandom) Dest(u, p int) (int, int) {
	checkPort(m.s.n, u, p)
	if v, q, ok := m.s.resolve(u, p); ok {
		return v, q
	}
	// Pick a uniformly random node not yet linked to u.
	var v int
	for {
		v = m.s.rng.Intn(m.s.n)
		if v != u && !m.s.connected(u, v) {
			break
		}
	}
	q := m.s.freePort(v)
	m.s.wire(u, p, v, q)
	return v, q
}

// Chooser is the adversary strategy for an Adaptive mapping. Given that node
// u is sending over previously-unwired port p, it returns the node the
// adversary wants to receive the message. Returning a node already linked to
// u, u itself, or a value outside [0,n) makes the mapping fall back to a
// uniformly random feasible choice.
type Chooser func(u, p int) int

// ArrivalChooser picks the arrival port on the destination side of a fresh
// wire. Lemma 3.3's adversary controls both endpoints of an unused link, and
// the component game exploits this: assigning arrivals to the destination's
// *lowest* unwired ports makes a deterministic algorithm's future low-port
// sends reuse existing in-block links instead of demanding fresh ones.
// Returning an already-wired or out-of-range port falls back to a uniformly
// random free port.
type ArrivalChooser func(v int) int

// Adaptive is the lower-bound adversary's port mapping (cf. Lemma 3.3 and
// the pruning argument of Lemma 3.9): wiring decisions are deferred until a
// port is first used and then made by the Chooser, subject to bijectivity.
type Adaptive struct {
	s             lazyState
	choose        Chooser
	chooseArrival ArrivalChooser
}

// NewAdaptive builds an adaptive mapping with the given strategy; rng breaks
// the adversary's ties and serves fallback choices.
func NewAdaptive(n int, choose Chooser, rng *xrand.RNG) *Adaptive {
	a := &Adaptive{choose: choose}
	a.s.init(n, rng)
	return a
}

// SetArrivalChooser installs an arrival-port strategy (nil reverts to
// uniformly random free ports).
func (m *Adaptive) SetArrivalChooser(f ArrivalChooser) { m.chooseArrival = f }

// N implements Map.
func (m *Adaptive) N() int { return m.s.n }

// Wired reports whether port p of node u has been wired yet. The component
// game uses this to distinguish port opens from reuse.
func (m *Adaptive) Wired(u, p int) bool { return m.s.portWired(u, p) }

// Connected reports whether nodes u and v are already joined by a wired
// link.
func (m *Adaptive) Connected(u, v int) bool { return m.s.connected(u, v) }

// Degree returns the number of wired links at node u.
func (m *Adaptive) Degree(u int) int { return m.s.deg[u] }

// Dest implements Map.
func (m *Adaptive) Dest(u, p int) (int, int) {
	checkPort(m.s.n, u, p)
	if v, q, ok := m.s.resolve(u, p); ok {
		return v, q
	}
	v := m.choose(u, p)
	if v < 0 || v >= m.s.n || v == u || m.s.connected(u, v) {
		// Infeasible adversary choice: fall back to uniform.
		for {
			v = m.s.rng.Intn(m.s.n)
			if v != u && !m.s.connected(u, v) {
				break
			}
		}
	}
	q := -1
	if m.chooseArrival != nil {
		if c := m.chooseArrival(v); c >= 0 && c < m.s.n-1 {
			if !m.s.portWired(v, c) {
				q = c
			}
		}
	}
	if q < 0 {
		q = m.s.freePort(v)
	}
	m.s.wire(u, p, v, q)
	return v, q
}

func checkPort(n, u, p int) {
	if u < 0 || u >= n {
		panic(fmt.Sprintf("portmap: node %d out of range [0,%d)", u, n))
	}
	if p < 0 || p >= n-1 {
		panic(fmt.Sprintf("portmap: port %d out of range [0,%d)", p, n-1))
	}
}

// Interface compliance checks.
var (
	_ Map = (*Canonical)(nil)
	_ Map = (*SharedPerm)(nil)
	_ Map = (*LazyRandom)(nil)
	_ Map = (*Adaptive)(nil)
)
