package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children produced identical first output")
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(3)
	for _, n := range []uint64{1, 2, 3, 7, 100, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(0).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(9)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(13)
	const p, draws = 0.3, 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) empirical rate %v", p, got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	prop := func(seed uint64, sz uint8) bool {
		n := int(sz%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleDistinctInRange(t *testing.T) {
	prop := func(seed uint64, a, b uint16) bool {
		n := int(a%1000) + 1
		k := int(b) % (n + 1)
		s := New(seed).Sample(nil, n, k)
		if len(s) != k {
			return false
		}
		seen := make(map[int]bool, k)
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleFull(t *testing.T) {
	s := New(17).Sample(nil, 10, 10)
	seen := make([]bool, 10)
	for _, v := range s {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("Sample(10,10) missing %d", i)
		}
	}
}

func TestSampleUniformFirstElement(t *testing.T) {
	r := New(23)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Sample(nil, n, 1)[0]]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("first-element bucket %d: got %d want ~%.0f", i, c, want)
		}
	}
}

func TestSamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(1,2) did not panic")
		}
	}()
	New(0).Sample(nil, 1, 2)
}

func TestMul64(t *testing.T) {
	cases := []struct {
		x, y, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.x, c.y)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.x, c.y, hi, lo, c.hi, c.lo)
		}
	}
}

// mul64Reference is mul64 as it was first written, by 32-bit halves: the
// oracle the hardware multiply must match on every input.
func mul64Reference(x, y uint64) (hi, lo uint64) {
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

// TestMul64MatchesReference checks mul64 against the by-halves oracle on
// every pair of edge values (0, 1, the 32-bit boundaries, the top values)
// and on a million random pairs.
func TestMul64MatchesReference(t *testing.T) {
	edges := []uint64{0, 1, 2, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<63 - 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	check := func(x, y uint64) {
		hi, lo := mul64(x, y)
		if whi, wlo := mul64Reference(x, y); hi != whi || lo != wlo {
			t.Fatalf("mul64(%d,%d) = (%d,%d), reference (%d,%d)", x, y, hi, lo, whi, wlo)
		}
	}
	for _, x := range edges {
		for _, y := range edges {
			check(x, y)
		}
	}
	r := New(5)
	for i := 0; i < 1_000_000; i++ {
		check(r.Uint64(), r.Uint64()>>(i%64))
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkSample16(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Sample(nil, 1<<20, 16)
	}
}

// sampleReference is Sample as it was first written, over a Go map: the
// oracle the flat-table Sample must match value for value.
func sampleReference(r *RNG, n, k int) []int {
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

func TestSampleMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 10, 2047, 1 << 20} {
		ks := []int{0, 1, min(2, n), min(3, n), min(16, n), n / 2, n - 1, n}
		if n == 1<<20 {
			// Shuffles this long are slow through the map oracle, so the
			// large k run below for three seeds only.
			ks = []int{0, 1, 2, 3, 16, 1000, 4096}
		}
		for _, k := range ks {
			for seed := uint64(1); seed <= 50; seed++ {
				checkSampleAgainstReference(t, seed, n, k)
			}
		}
	}
	for _, k := range []int{1 << 16, 1 << 20} {
		for seed := uint64(1); seed <= 3; seed++ {
			checkSampleAgainstReference(t, seed, 1<<20, k)
		}
	}
}

// checkSampleAgainstReference draws into a slice that already holds a
// value, so it checks that Sample appends after it and leaves it alone.
func checkSampleAgainstReference(t *testing.T, seed uint64, n, k int) {
	t.Helper()
	got, want := New(seed), New(seed)
	g, w := got.Sample([]int{-1}, n, k), sampleReference(want, n, k)
	if g[0] != -1 {
		t.Fatalf("Sample(%d,%d) seed %d: overwrote the slice's first value with %d", n, k, seed, g[0])
	}
	g = g[1:]
	if len(g) != len(w) {
		t.Fatalf("Sample(%d,%d) seed %d: %d values, reference %d", n, k, seed, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("Sample(%d,%d) seed %d: value %d is %d, reference %d", n, k, seed, i, g[i], w[i])
		}
	}
	if got.state != want.state {
		t.Fatalf("Sample(%d,%d) seed %d: generator state diverged from the reference", n, k, seed)
	}
}

// TestSampleAllocatesOnlyResult pins Sample's pooled table: a warm draw of
// 51 ports out of 2047 (a 128-slot table) allocates its result when given
// no slice, and nothing at all when it appends into scratch with room.
func TestSampleAllocatesOnlyResult(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation drops pooled tables; enforced in the non-race build")
	}
	r := New(3)
	scratch := r.Sample(nil, 2047, 51) // warm the table pool
	if allocs := testing.AllocsPerRun(100, func() { r.Sample(nil, 2047, 51) }); allocs != 1 {
		t.Fatalf("a warm Sample(nil, 2047, 51) allocated %v times, want 1 (its result)", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { scratch = r.Sample(scratch[:0], 2047, 51) }); allocs != 0 {
		t.Fatalf("a warm Sample into scratch allocated %v times, want 0", allocs)
	}
}
