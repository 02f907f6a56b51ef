package portmap

import (
	"testing"
	"testing/quick"

	"cliquelect/internal/xrand"
)

// checkInvolution verifies p(p(u,i)) = (u,i) for all endpoints of an n-node
// map, that no port leads to its own node, and that each node's ports reach
// each other node exactly once.
func checkInvolution(t *testing.T, m Map) {
	t.Helper()
	nodes := make([]int, m.N())
	for u := range nodes {
		nodes[u] = u
	}
	checkInvolutionAt(t, m, nodes)
}

// checkInvolutionAt is checkInvolution over every port of the given nodes
// only, for maps too large to wire whole.
func checkInvolutionAt(t *testing.T, m Map, nodes []int) {
	t.Helper()
	n := m.N()
	for _, u := range nodes {
		seen := make(map[int]int, n-1)
		for p := 0; p < n-1; p++ {
			v, q := m.Dest(u, p)
			if v == u {
				t.Fatalf("port (%d,%d) loops back to its own node", u, p)
			}
			if prev, dup := seen[v]; dup {
				t.Fatalf("node %d reaches node %d via ports %d and %d", u, v, prev, p)
			}
			seen[v] = p
			ru, rp := m.Dest(v, q)
			if ru != u || rp != p {
				t.Fatalf("not an involution: (%d,%d)->(%d,%d)->(%d,%d)", u, p, v, q, ru, rp)
			}
		}
	}
}

func TestCanonicalInvolution(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8, 17, 64} {
		checkInvolution(t, NewCanonical(n))
	}
}

func TestSharedPermInvolution(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8, 17, 64} {
		checkInvolution(t, NewSharedPerm(n, xrand.New(uint64(n))))
	}
}

func TestLazyRandomInvolution(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8, 17, 33} {
		checkInvolution(t, NewLazyRandom(n, xrand.New(uint64(n))))
	}
}

func TestAdaptiveFallbackInvolution(t *testing.T) {
	// A chooser that always returns an infeasible value exercises the
	// uniform fallback path for every wiring decision.
	for _, n := range []int{2, 3, 8, 17} {
		m := NewAdaptive(n, func(u, p int) int { return -1 }, xrand.New(uint64(n)))
		checkInvolution(t, m)
	}
}

func TestAdaptiveHonorsChooser(t *testing.T) {
	const n = 10
	// Adversary wires everything from node 0 to nodes 5..8 in order.
	next := 5
	m := NewAdaptive(n, func(u, p int) int {
		v := next
		next++
		return v
	}, xrand.New(1))
	for p := 0; p < 4; p++ {
		v, _ := m.Dest(0, p)
		if v != 5+p {
			t.Fatalf("port %d wired to %d, want %d", p, v, 5+p)
		}
	}
	if !m.Connected(0, 5) || m.Connected(0, 9) {
		t.Fatal("Connected bookkeeping wrong")
	}
	if m.Degree(0) != 4 || m.Degree(5) != 1 {
		t.Fatalf("degrees: %d, %d", m.Degree(0), m.Degree(5))
	}
}

func TestAdaptiveRefusesDoubleLink(t *testing.T) {
	const n = 6
	// Chooser always says node 3: only the first wiring from node 0 may obey;
	// subsequent ones must fall back (a pair is linked at most once).
	m := NewAdaptive(n, func(u, p int) int { return 3 }, xrand.New(2))
	counts := make(map[int]int)
	for p := 0; p < n-1; p++ {
		v, _ := m.Dest(0, p)
		counts[v]++
	}
	for v, c := range counts {
		if c != 1 {
			t.Fatalf("node %d reached %d times", v, c)
		}
	}
}

func TestAdaptiveWired(t *testing.T) {
	m := NewAdaptive(5, func(u, p int) int { return -1 }, xrand.New(3))
	if m.Wired(0, 0) {
		t.Fatal("fresh port reported wired")
	}
	v, q := m.Dest(0, 0)
	if !m.Wired(0, 0) || !m.Wired(v, q) {
		t.Fatal("both endpoints should be wired after Dest")
	}
}

func TestLazyRandomStability(t *testing.T) {
	// Dest must return the same answer on repeated queries.
	m := NewLazyRandom(16, xrand.New(7))
	type pq struct{ v, q int }
	first := make(map[[2]int]pq)
	for u := 0; u < 16; u++ {
		for p := 0; p < 15; p++ {
			v, q := m.Dest(u, p)
			first[[2]int{u, p}] = pq{v, q}
		}
	}
	for u := 0; u < 16; u++ {
		for p := 0; p < 15; p++ {
			v, q := m.Dest(u, p)
			if got := first[[2]int{u, p}]; got.v != v || got.q != q {
				t.Fatalf("Dest(%d,%d) changed between calls", u, p)
			}
		}
	}
}

func TestLazyRandomUniformFirstHop(t *testing.T) {
	// The first port of node 0 should be (approximately) uniform over the
	// other nodes across seeds.
	const n, draws = 8, 7000
	counts := make([]int, n)
	for seed := 0; seed < draws; seed++ {
		m := NewLazyRandom(n, xrand.New(uint64(seed)))
		v, _ := m.Dest(0, 0)
		counts[v]++
	}
	if counts[0] != 0 {
		t.Fatal("port wired to own node")
	}
	want := float64(draws) / (n - 1)
	for v := 1; v < n; v++ {
		if f := float64(counts[v]); f < want*0.8 || f > want*1.2 {
			t.Errorf("node %d hit %d times, want ~%.0f", v, counts[v], want)
		}
	}
}

func TestSharedPermMatchesCanonicalStructure(t *testing.T) {
	// SharedPerm with any permutation must still be a valid involution where
	// each node reaches all others; quick-check over seeds and sizes.
	prop := func(seed uint64, sz uint8) bool {
		n := int(sz%30) + 2
		m := NewSharedPerm(n, xrand.New(seed))
		for u := 0; u < n; u++ {
			reached := make(map[int]bool)
			for p := 0; p < n-1; p++ {
				v, q := m.Dest(u, p)
				ru, rp := m.Dest(v, q)
				if ru != u || rp != p || v == u || reached[v] {
					return false
				}
				reached[v] = true
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPanicsOnBadArgs(t *testing.T) {
	m := NewCanonical(4)
	for _, bad := range [][2]int{{-1, 0}, {4, 0}, {0, -1}, {0, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Dest(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			m.Dest(bad[0], bad[1])
		}()
	}
	for _, ctor := range []func(){
		func() { NewCanonical(1) },
		func() { NewSharedPerm(1, xrand.New(0)) },
		func() { NewLazyRandom(0, xrand.New(0)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("constructor with n<2 did not panic")
				}
			}()
			ctor()
		}()
	}
}
