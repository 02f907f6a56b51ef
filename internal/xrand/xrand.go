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

// Sample returns k distinct values drawn uniformly without replacement from
// [0, n). It panics if k > n or k < 0. The result is in selection order, not
// sorted. It runs in O(k) time and space regardless of n, using a sparse
// partial Fisher-Yates shuffle, so sampling a handful of ports from a clique
// of millions of links is cheap.
func (r *RNG) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("xrand: Sample with k out of range")
	}
	out := make([]int, 0, k)
	// swapped[i] records the value currently residing at virtual index i of
	// the implicitly shuffled array 0..n-1.
	swapped := make(map[int]int, 2*k)
	at := func(i int) int {
		if v, ok := swapped[i]; ok {
			return v
		}
		return i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		vi, vj := at(i), at(j)
		swapped[i], swapped[j] = vj, vi
		out = append(out, vj)
	}
	return out
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return hi, lo
}
