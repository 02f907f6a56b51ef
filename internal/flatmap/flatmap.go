// Package flatmap provides open-addressing hash containers specialized to
// uint64 keys, for the simulators' hot paths. The engines' per-run state —
// the lazy port wiring, the async FIFO clamp — is dominated by hash-table
// traffic at large n, and profiling showed the general-purpose Go map
// spending most of a sweep's CPU on hashing and bucket management there.
// These tables use linear probing over power-of-two arrays with a
// splitmix64-style mixer: no interface dispatch, no per-entry allocation,
// and Reset reuses grown capacity so pooled consumers reach steady-state
// zero allocation across runs.
//
// Consumers: U64Map holds simasync's per-link FIFO clamp and, above
// portmap's dense cutoff (n > 2048), its lazy wiring (endpoint -> endpoint);
// U64Set holds portmap's wired links above the same cutoff. Below it
// portmap answers from a dense far-end table and bitsets, so serve-sized
// runs never touch either for wiring.
//
// Keys are stored shifted by +1 so the zero word can mean "empty slot";
// callers' keys must therefore fit in 63 bits. Every consumer packs two
// 31-bit indices, far below the limit.
//
// Containers here only ever answer membership/value questions — they never
// influence iteration order or randomness — so swapping them in for Go maps
// keeps every execution byte-identical.
package flatmap

const minSize = 16

// mix64 is the splitmix64 finalizer (the mixer xrand builds on): enough
// avalanche that linear probing sees uniformly spread packed-index keys.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// U64Map maps uint64 keys (< 1<<63) to uint64 values. The zero value is
// ready to use. A slot holds its key and value side by side, so a hit reads
// one cache line.
type U64Map struct {
	slots []slot
	n     int
}

type slot struct {
	k uint64 // key+1, 0 = empty
	v uint64
}

// Len returns the number of live entries.
func (m *U64Map) Len() int { return m.n }

// Cap returns the number of slots the map holds, live or empty.
func (m *U64Map) Cap() int { return len(m.slots) }

// Get returns the value stored under key, if any.
func (m *U64Map) Get(key uint64) (uint64, bool) {
	if m.n == 0 {
		return 0, false
	}
	mask := uint64(len(m.slots) - 1)
	for i := mix64(key) & mask; ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.k == 0 {
			return 0, false
		}
		if s.k == key+1 {
			return s.v, true
		}
	}
}

// Put inserts or overwrites the value under key.
func (m *U64Map) Put(key, val uint64) {
	if 4*(m.n+1) > 3*len(m.slots) { // grow at 75% load
		m.grow()
	}
	mask := uint64(len(m.slots) - 1)
	i := mix64(key) & mask
	for {
		s := &m.slots[i]
		if s.k == 0 {
			*s = slot{key + 1, val}
			m.n++
			return
		}
		if s.k == key+1 {
			s.v = val
			return
		}
		i = (i + 1) & mask
	}
}

// Reset empties the map, keeping grown capacity for reuse.
func (m *U64Map) Reset() {
	clear(m.slots)
	m.n = 0
}

func (m *U64Map) grow() {
	old := m.slots
	size := minSize
	if len(old) > 0 {
		size = 2 * len(old)
	}
	m.slots = make([]slot, size)
	mask := uint64(len(m.slots) - 1)
	for _, s := range old {
		if s.k == 0 {
			continue
		}
		i := mix64(s.k-1) & mask
		for m.slots[i].k != 0 {
			i = (i + 1) & mask
		}
		m.slots[i] = s
	}
}

// U64Set is a membership set over uint64 keys (< 1<<63). The zero value is
// ready to use.
type U64Set struct {
	keys []uint64 // key+1, 0 = empty
	n    int
}

// Len returns the number of members.
func (s *U64Set) Len() int { return s.n }

// Cap returns the number of slots the set holds, live or empty.
func (s *U64Set) Cap() int { return len(s.keys) }

// Has reports membership.
func (s *U64Set) Has(key uint64) bool {
	if s.n == 0 {
		return false
	}
	mask := uint64(len(s.keys) - 1)
	for i := mix64(key) & mask; ; i = (i + 1) & mask {
		k := s.keys[i]
		if k == 0 {
			return false
		}
		if k == key+1 {
			return true
		}
	}
}

// Add inserts key (idempotent).
func (s *U64Set) Add(key uint64) {
	if 4*(s.n+1) > 3*len(s.keys) {
		s.grow()
	}
	mask := uint64(len(s.keys) - 1)
	i := mix64(key) & mask
	for {
		k := s.keys[i]
		if k == 0 {
			s.keys[i] = key + 1
			s.n++
			return
		}
		if k == key+1 {
			return
		}
		i = (i + 1) & mask
	}
}

// Reset empties the set, keeping grown capacity for reuse.
func (s *U64Set) Reset() {
	clear(s.keys)
	s.n = 0
}

func (s *U64Set) grow() {
	old := s.keys
	size := minSize
	if len(old) > 0 {
		size = 2 * len(old)
	}
	s.keys = make([]uint64, size)
	mask := uint64(len(s.keys) - 1)
	for _, k := range old {
		if k == 0 {
			continue
		}
		i := mix64(k-1) & mask
		for s.keys[i] != 0 {
			i = (i + 1) & mask
		}
		s.keys[i] = k
	}
}
