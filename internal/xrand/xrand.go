// Package xrand provides a small, deterministic pseudo-random number
// generator used by every randomized protocol and experiment in this
// repository.
//
// The generator is splitmix64 (Steele, Lea, Flood 2014): a 64-bit state
// advanced by a Weyl constant and finalized with a variant of the MurmurHash3
// mixer. It is not cryptographically secure; it is chosen because it is
// trivially seedable, fast, portable across Go versions (unlike math/rand's
// unexported algorithms), and makes every execution in this repository
// byte-for-byte reproducible from a single uint64 seed.
package xrand

import (
	"math/bits"
	"slices"
	"sync"
)

// RNG is a deterministic pseudo-random number generator. The zero value is a
// valid generator seeded with 0; prefer New to make seeding explicit.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed. Distinct seeds yield independent-
// looking streams.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives a new, independently-seeded generator from the current one.
// It is used to give every node in a simulated network its own private coin
// stream so that per-node randomness does not depend on scheduling order.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// SplitInto is Split without the allocation: it reseeds dst with the same
// stream Split would have returned. The engines use it to hold all n node
// generators in one flat slice instead of n heap objects.
func (r *RNG) SplitInto(dst *RNG) {
	dst.state = r.Uint64()
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	// Lemire's nearly-divisionless method with rejection to remove bias.
	hi, lo := mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = mul64(r.Uint64(), n)
		}
	}
	_ = lo
	return hi
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int63 returns a uniform non-negative int64.
func (r *RNG) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample appends k distinct values drawn uniformly without replacement
// from [0, n) to dst and returns the extended slice; dst may be nil. It
// panics if k > n or k < 0. The values are in selection order, not sorted.
// It runs in O(k) time and space regardless of n, using a sparse partial
// Fisher-Yates shuffle, so sampling a handful of ports from a clique of
// millions of links is cheap. A caller that drops the values after use can
// pass the same scratch slice, cut to length zero, on every call, and
// then a warm Sample allocates nothing.
func (r *RNG) Sample(dst []int, n, k int) []int {
	if k < 0 || k > n {
		panic("xrand: Sample with k out of range")
	}
	out := slices.Grow(dst, k)
	if k == 0 {
		return out
	}
	// The shuffle's displaced values live in an open-addressing table of at
	// least 2k slots, keyed by virtual index of the implicitly shuffled
	// array 0..n-1. Step i reads indices i and j >= i and leaves index i
	// behind for good, so only the value moved to j is stored: at most k
	// keys, under half load. The table is pooled scratch, handed back
	// cleared.
	shift := 64 - bits.Len(uint(2*k-1))
	st := getSampleTable(1 << (64 - shift))
	defer putSampleTable(st)
	table := st.slots
	mask := len(table) - 1
	find := func(i int) *sampleSlot {
		h := int(uint64(i) * 0x9e3779b97f4a7c15 >> shift)
		for {
			sl := &table[h]
			if sl.key == 0 || sl.key == i+1 {
				return sl
			}
			h = (h + 1) & mask
		}
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		vi := i
		if sl := find(i); sl.key != 0 {
			vi = sl.val
		}
		vj := vi
		if j != i {
			sl := find(j)
			vj = j
			if sl.key != 0 {
				vj = sl.val
			}
			*sl = sampleSlot{key: j + 1, val: vi}
		}
		out = append(out, vj)
	}
	return out
}

// sampleSlot is one entry of Sample's table: key is a virtual index plus
// one (0 marks an empty slot), val the value now at that index.
type sampleSlot struct{ key, val int }

// sampleTable is a pooled Sample table; slots is all empty while pooled.
type sampleTable struct{ slots []sampleSlot }

// maxPooledSlots bounds the tables the pool keeps (1 MiB on 64-bit):
// protocol samples take a few thousand slots at most, and a rare huge draw
// should not pin its table in memory.
const maxPooledSlots = 1 << 16

var sampleTables = sync.Pool{New: func() any { return new(sampleTable) }}

// getSampleTable returns a pooled table resized to size empty slots.
func getSampleTable(size int) *sampleTable {
	st := sampleTables.Get().(*sampleTable)
	if cap(st.slots) < size {
		st.slots = make([]sampleSlot, size)
	}
	st.slots = st.slots[:size]
	return st
}

// putSampleTable empties st and returns it to the pool.
func putSampleTable(st *sampleTable) {
	if len(st.slots) > maxPooledSlots {
		return
	}
	clear(st.slots)
	sampleTables.Put(st)
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) { return bits.Mul64(x, y) }
