package portmap

import (
	"fmt"
	"testing"

	"cliquelect/internal/xrand"
)

// newLazyRepr builds a LazyRandom with its membership representation fixed
// by the caller instead of by n.
func newLazyRepr(n int, seed uint64, dense bool) *LazyRandom {
	m := new(LazyRandom)
	m.s.initRepr(n, xrand.New(seed), dense)
	return m
}

// newAdaptiveRepr builds an Adaptive with a fixed representation. Its
// chooser names out-of-range nodes, u itself and already-linked nodes often
// enough to exercise the uniform fallback; its arrival chooser, when
// installed, picks the lowest unwired port of even nodes (the component
// game's strategy, read through Wired) and an arbitrary, often wired or
// out-of-range, port of odd ones.
func newAdaptiveRepr(n int, seed uint64, dense, arrival bool) *Adaptive {
	a := &Adaptive{choose: func(u, p int) int { return (u*7+p*13)%(n+2) - 1 }}
	a.s.initRepr(n, xrand.New(seed), dense)
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

// TestDenseHashedAgree drives the dense and hashed representations through
// the same query sequence from the same seed: every Dest answer, every
// membership answer and the generator's state afterwards must agree, since
// the representation may not move a single random draw.
func TestDenseHashedAgree(t *testing.T) {
	for _, n := range []int{2, 3, 5, 17, 64, 300} {
		steps := 4 * n * n
		if n > 64 {
			steps = n * n / 3 // wires about a third of the ports
		}
		for _, variant := range []string{"lazy", "adaptive", "adaptive+arrival"} {
			var dense, hashed Map
			var dr, hr *lazyState
			switch variant {
			case "lazy":
				d, h := newLazyRepr(n, 11, true), newLazyRepr(n, 11, false)
				dense, hashed, dr, hr = d, h, &d.s, &h.s
			default:
				arrival := variant == "adaptive+arrival"
				d, h := newAdaptiveRepr(n, 11, true, arrival), newAdaptiveRepr(n, 11, false, arrival)
				dense, hashed, dr, hr = d, h, &d.s, &h.s
			}
			if !dr.dense || hr.dense {
				t.Fatalf("%s n=%d: representations not as selected", variant, n)
			}
			drive := xrand.New(uint64(n))
			for i := 0; i < steps; i++ {
				u, p := drive.Intn(n), drive.Intn(n-1)
				dv, dq := dense.Dest(u, p)
				hv, hq := hashed.Dest(u, p)
				if dv != hv || dq != hq {
					t.Fatalf("%s n=%d step %d: Dest(%d,%d) dense (%d,%d), hashed (%d,%d)", variant, n, i, u, p, dv, dq, hv, hq)
				}
				w, x, q := drive.Intn(n), drive.Intn(n), drive.Intn(n-1)
				if w != x && dr.connected(w, x) != hr.connected(w, x) {
					t.Fatalf("%s n=%d step %d: connected(%d,%d) disagrees", variant, n, i, w, x)
				}
				if dr.portWired(w, q) != hr.portWired(w, q) {
					t.Fatalf("%s n=%d step %d: portWired(%d,%d) disagrees", variant, n, i, w, q)
				}
			}
			if d, h := dr.rng.Uint64(), hr.rng.Uint64(); d != h {
				t.Fatalf("%s n=%d: generator state diverged", variant, n)
			}
			checkInvolution(t, dense)
			checkInvolution(t, hashed)
		}
	}
}

// TestDenseCutoff pins the representation choice at denseBudget and checks
// the hashed wiring the public constructor selects just above it.
func TestDenseCutoff(t *testing.T) {
	if !denseFits(4096) || denseFits(4097) {
		t.Fatalf("dense cutoff moved: fits(4096)=%v fits(4097)=%v", denseFits(4096), denseFits(4097))
	}
	if m := NewLazyRandom(4096, xrand.New(1)); !m.s.dense {
		t.Fatal("n=4096 mapping is not dense")
	}
	m := NewLazyRandom(4097, xrand.New(1))
	if m.s.dense {
		t.Fatal("n=4097 mapping is dense")
	}
	// Wiring all 4097·4096 ports would take ~0.7 GB of tables; every port of
	// a few nodes exercises the same code.
	checkInvolutionAt(t, m, []int{0, 1, 2048, 4095, 4096})
}

// TestLazyPoolSizeClasses releases a mapping grown at n=2048 and draws one
// at n=256: the pools are classed by n, so the small run's tables are never
// larger than a fresh n=256 run's, at the draw or after wiring every port.
func TestLazyPoolSizeClasses(t *testing.T) {
	capacity := func(m *LazyRandom) [4]int {
		return [4]int{m.s.wired.Cap(), cap(m.s.ports), cap(m.s.pairs), cap(m.s.deg)}
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
		out[u] = rng.Sample(n-1, min(fan, n-1))
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

// BenchmarkLazyRandomDest times the lazy wiring on its own: every node
// sends over 16 Sample-drawn ports and each send is answered over its
// arrival port, on a pooled mapping (the engines' steady state).
func BenchmarkLazyRandomDest(b *testing.B) {
	for _, n := range []int{256, 2048} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			fan := fanouts(n, 16, 1)
			rng := xrand.New(0)
			b.ReportAllocs()
			b.ResetTimer()
			calls := 0
			for i := 0; i < b.N; i++ {
				*rng = *xrand.New(uint64(i))
				m := NewLazyRandom(n, rng)
				calls = exchange(m, fan)
				m.Release()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*calls), "ns/dest")
		})
	}
}
