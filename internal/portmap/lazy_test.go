package portmap

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"cliquelect/internal/xrand"
)

// reprs names initRepr's two representations; the hashed one, the
// representation above the dense cutoff, is the reference.
var reprs = []struct {
	name  string
	dense bool
}{{"hashed", false}, {"dense", true}}

// initWith initializes s densely or hashed. A dense mapping's far table
// starts poisoned, every entry 0xFFFFFFFF as a pooled run leaves the entries
// it wired: initRepr reuses the table uncleared, so a read of an entry the
// ports bitset does not cover answers node 65535 and fails the comparison.
func initWith(t *testing.T, s *lazyState, n int, seed uint64, dense bool) {
	t.Helper()
	if dense {
		s.far = make([]uint32, n*(n-1))
		for i := range s.far {
			s.far[i] = 0xFFFFFFFF
		}
	}
	s.initRepr(n, xrand.New(seed), dense)
	if s.dense != dense {
		t.Fatalf("n=%d: dense=%v, selected %v", n, s.dense, dense)
	}
	if dense && s.far[len(s.far)-1] != 0xFFFFFFFF {
		t.Fatalf("n=%d: initRepr cleared or reallocated a far table that fits", n)
	}
}

// newAdaptive builds an uninitialized Adaptive for initWith. Its chooser
// names out-of-range nodes, u itself and already-linked nodes often enough
// to exercise the uniform fallback; its arrival chooser, when installed,
// picks the lowest unwired port of even nodes (the component game's
// strategy, read through Wired) and an arbitrary, often wired or
// out-of-range, port of odd ones.
func newAdaptive(n int, arrival bool) *Adaptive {
	a := &Adaptive{choose: func(u, p int) int { return (u*7+p*13)%(n+2) - 1 }}
	if arrival {
		a.SetArrivalChooser(func(v int) int {
			if v%2 == 1 {
				return (v*5)%n - 1
			}
			for c := 0; c < n-1; c++ {
				if !a.Wired(v, c) {
					return c
				}
			}
			return -1
		})
	}
	return a
}

// TestDenseHashedAgree drives both representations through the same query
// sequence from the same seed and compares the dense one with the hashed
// one: every Dest answer, every membership answer, every port's far end
// afterwards and the generator's state must agree, since the representation
// may not move a single random draw.
func TestDenseHashedAgree(t *testing.T) {
	for _, n := range []int{2, 3, 5, 17, 64, 300} {
		steps := 4 * n * n
		if n > 64 {
			steps = n * n / 3 // wires about a third of the ports
		}
		for _, variant := range []string{"lazy", "adaptive", "adaptive+arrival"} {
			maps := make([]Map, len(reprs))
			states := make([]*lazyState, len(reprs))
			for i, rp := range reprs {
				if variant == "lazy" {
					m := new(LazyRandom)
					maps[i], states[i] = m, &m.s
				} else {
					a := newAdaptive(n, variant == "adaptive+arrival")
					maps[i], states[i] = a, &a.s
				}
				initWith(t, states[i], n, 11, rp.dense)
			}
			drive := xrand.New(uint64(n))
			for step := 0; step < steps; step++ {
				u, p := drive.Intn(n), drive.Intn(n-1)
				w, x, q := drive.Intn(n), drive.Intn(n), drive.Intn(n-1)
				hv, hq := maps[0].Dest(u, p)
				for i := 1; i < len(maps); i++ {
					if v, q := maps[i].Dest(u, p); v != hv || q != hq {
						t.Fatalf("%s n=%d step %d: Dest(%d,%d) %s (%d,%d), hashed (%d,%d)", variant, n, step, u, p, reprs[i].name, v, q, hv, hq)
					}
					if w != x && states[i].connected(w, x) != states[0].connected(w, x) {
						t.Fatalf("%s n=%d step %d: %s connected(%d,%d) disagrees", variant, n, step, reprs[i].name, w, x)
					}
					if states[i].portWired(w, q) != states[0].portWired(w, q) {
						t.Fatalf("%s n=%d step %d: %s portWired(%d,%d) disagrees", variant, n, step, reprs[i].name, w, q)
					}
				}
			}
			for u := 0; u < n; u++ {
				for p := 0; p < n-1; p++ {
					hv, hq, hok := states[0].resolve(u, p)
					for i := 1; i < len(states); i++ {
						if v, q, ok := states[i].resolve(u, p); v != hv || q != hq || ok != hok {
							t.Fatalf("%s n=%d: resolve(%d,%d) %s (%d,%d,%v), hashed (%d,%d,%v)", variant, n, u, p, reprs[i].name, v, q, ok, hv, hq, hok)
						}
					}
				}
			}
			want := states[0].rng.Uint64()
			for i := 1; i < len(states); i++ {
				if states[i].rng.Uint64() != want {
					t.Fatalf("%s n=%d: %s generator state diverged", variant, n, reprs[i].name)
				}
			}
			for _, m := range maps {
				checkInvolution(t, m)
			}
		}
	}
}

// TestDenseCutoff pins the representation choice at denseBudget, checks
// that a mapping drops the tables an earlier run of its pool class grew in
// the other representation, and checks the hashed wiring the public
// constructor selects just above the cutoff.
func TestDenseCutoff(t *testing.T) {
	if !denseFits(2048) || denseFits(2049) {
		t.Fatalf("dense cutoff moved: fits(2048)=%v fits(2049)=%v", denseFits(2048), denseFits(2049))
	}
	// The table sizes must not wrap: 4·n·(n-1) in int wraps negative at
	// n = 65536 on 32 bits, and to 8 at math.MaxInt on any width.
	for _, n := range []int{65536, math.MaxInt32, math.MaxInt} {
		if denseFits(n) {
			t.Fatalf("an n=%d mapping fits the dense tables", n)
		}
	}
	// n = 2048 and 3000 share a pool class: neither may keep the other's
	// tables alive, in either order.
	m := new(LazyRandom)
	s := &m.s
	s.init(2048, xrand.New(1))
	checkInvolutionAt(t, m, []int{0, 2047})
	s.init(3000, xrand.New(1))
	if s.dense || s.far != nil || s.ports != nil || s.pairs != nil {
		t.Fatal("an n=3000 mapping is dense or kept an n=2048 run's tables")
	}
	checkInvolutionAt(t, m, []int{0, 2999})
	if s.wired.Cap() == 0 || s.links.Cap() == 0 {
		t.Fatal("the n=3000 run wired nothing")
	}
	s.init(2048, xrand.New(1))
	if !s.dense || s.wired.Cap() != 0 || s.links.Cap() != 0 {
		t.Fatalf("an n=2048 mapping kept an n=3000 run's tables: wired %d, links %d slots", s.wired.Cap(), s.links.Cap())
	}
	m = NewLazyRandom(2049, xrand.New(1))
	if m.s.dense {
		t.Fatal("n=2049 mapping is dense")
	}
	// Wiring all 2049·2048 ports would take ~200 MB of hashed tables; every
	// port of a few nodes exercises the same code.
	checkInvolutionAt(t, m, []int{0, 1, 1024, 2047, 2048})
}

// TestLazyPoolSizeClasses releases a mapping grown at n=2048 and draws one
// at n=256: the pools are classed by n, so the small run's tables are never
// larger than a fresh n=256 run's, at the draw or after wiring every port.
func TestLazyPoolSizeClasses(t *testing.T) {
	capacity := func(m *LazyRandom) [5]int {
		return [5]int{m.s.wired.Cap(), cap(m.s.far), cap(m.s.ports), cap(m.s.pairs), cap(m.s.deg)}
	}
	wireAll := func(m *LazyRandom) {
		for u := 0; u < m.N(); u++ {
			for p := 0; p < m.N()-1; p++ {
				m.Dest(u, p)
			}
		}
	}
	fresh := new(LazyRandom)
	fresh.s.init(256, xrand.New(1))
	wireAll(fresh)
	limit := capacity(fresh)

	big := NewLazyRandom(2048, xrand.New(2))
	exchange(big, fanouts(2048, 64, 2))
	big.Release()

	small := NewLazyRandom(256, xrand.New(3))
	check := func(when string) {
		t.Helper()
		got := capacity(small)
		for i := range got {
			if got[i] > limit[i] {
				t.Fatalf("%s: pooled n=256 capacities %v exceed a fresh run's %v", when, got, limit)
			}
		}
	}
	check("at draw")
	wireAll(small)
	check("after wiring")
}

// fanouts draws, for every node of an n-node clique, fan distinct ports to
// send on, as a randomized protocol's Sample-driven fan-out does.
func fanouts(n, fan int, seed uint64) [][]int {
	rng := xrand.New(seed)
	out := make([][]int, n)
	for u := range out {
		out[u] = rng.Sample(nil, n-1, min(fan, n-1))
	}
	return out
}

// exchange sends over every port in fan and answers each send over its
// arrival port, the request/reply pattern of the sync protocols: the sends
// wire fresh ports, the replies resolve wired ones. It returns the number
// of Dest calls.
func exchange(m Map, fan [][]int) int {
	calls := 0
	for u, ports := range fan {
		for _, p := range ports {
			v, q := m.Dest(u, p)
			m.Dest(v, q)
			calls += 2
		}
	}
	return calls
}

// TestLazyWiringAllocBudget: a warm mapping drawn from the pool wires and
// resolves a whole run without allocating. The tables are reset, never
// regrown, when the run has the same shape.
func TestLazyWiringAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget is enforced in the non-race build")
	}
	for _, n := range []int{256, 2048} {
		fan := fanouts(n, 16, 1)
		rng := xrand.New(0)
		run := func() {
			*rng = *xrand.New(5)
			m := NewLazyRandom(n, rng)
			exchange(m, fan)
			m.Release()
		}
		run() // warm the pool
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Fatalf("n=%d: a warm wiring run allocated %.0f times, want 0", n, allocs)
		}
	}
}

// TestLazyWiringColdAllocs pins the cold path serve-cold takes: a GC
// empties the pools, so a run builds its tables from nothing. At n = 2048
// that must cost the same allocations whether each node wires 8 ports or
// 64, i.e. the tables are sized once and never regrown.
func TestLazyWiringColdAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget is enforced in the non-race build")
	}
	const n = 2048
	// cold returns the fewest allocations of three cold runs: one run's
	// count now and then includes an allocation the runtime made itself.
	cold := func(fan [][]int) uint64 {
		fewest := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC() // the second collection drops the pools' victim caches
			runtime.ReadMemStats(&before)
			m := NewLazyRandom(n, xrand.New(5))
			exchange(m, fan)
			m.Release()
			runtime.ReadMemStats(&after)
			fewest = min(fewest, after.Mallocs-before.Mallocs)
		}
		return fewest
	}
	narrow, wide := fanouts(n, 8, 1), fanouts(n, 64, 1)
	if a8, a64 := cold(narrow), cold(wide); a8 != a64 {
		t.Fatalf("a cold n=%d run allocated %d times at fan 8 and %d at fan 64: the tables grew", n, a8, a64)
	}
}

// BenchmarkLazyRandomDest times the lazy wiring on its own: every node
// sends over 16 Sample-drawn ports and each send is answered over its
// arrival port, on a pooled mapping (the engines' steady state).
func BenchmarkLazyRandomDest(b *testing.B) { benchmarkLazyRandomDest(b, false) }

// BenchmarkLazyRandomDestCold is BenchmarkLazyRandomDest with the pools
// emptied by two collections, outside the timer, before every run: the
// path serve-cold takes when a GC lands between runs of a size class.
func BenchmarkLazyRandomDestCold(b *testing.B) { benchmarkLazyRandomDest(b, true) }

func benchmarkLazyRandomDest(b *testing.B, cold bool) {
	for _, n := range []int{256, 2048} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			fan := fanouts(n, 16, 1)
			rng := xrand.New(0)
			b.ReportAllocs()
			b.ResetTimer()
			calls := 0
			for i := 0; i < b.N; i++ {
				if cold {
					b.StopTimer()
					runtime.GC()
					runtime.GC()
					b.StartTimer()
				}
				*rng = *xrand.New(uint64(i))
				m := NewLazyRandom(n, rng)
				calls = exchange(m, fan)
				m.Release()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*calls), "ns/dest")
		})
	}
}
