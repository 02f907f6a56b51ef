package topo

import (
	"testing"

	"cliquelect/internal/xrand"
)

// checkInvolution verifies the port-mapping contract on every port: Dest is
// a bijective involution and degrees match row widths.
func checkInvolution(t *testing.T, g *Graph) {
	t.Helper()
	n := g.N()
	var dir int64
	for u := 0; u < n; u++ {
		deg := g.Degree(u)
		seen := make(map[int]bool, deg)
		for p := 0; p < deg; p++ {
			v, q := g.Dest(u, p)
			if v == u {
				t.Fatalf("Dest(%d, %d) is a self-loop", u, p)
			}
			if q < 0 || q >= g.Degree(v) {
				t.Fatalf("Dest(%d, %d) arrival port %d outside degree %d of node %d", u, p, q, g.Degree(v), v)
			}
			if bu, bp := g.Dest(v, q); bu != u || bp != p {
				t.Fatalf("Dest(%d, %d) = (%d, %d) but Dest(%d, %d) = (%d, %d): not an involution",
					u, p, v, q, v, q, bu, bp)
			}
			if seen[v] {
				t.Fatalf("node %d has two ports to node %d", u, v)
			}
			seen[v] = true
			dir++
		}
	}
	if dir != 2*g.M() {
		t.Fatalf("directed edge count %d != 2*M() = %d", dir, 2*g.M())
	}
}

func TestRing(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 64} {
		g, err := Ring(n)
		if err != nil {
			t.Fatalf("Ring(%d): %v", n, err)
		}
		checkInvolution(t, g)
		wantM := int64(n)
		if n <= 2 {
			wantM = int64(n - 1)
		}
		if g.M() != wantM {
			t.Errorf("Ring(%d).M() = %d, want %d", n, g.M(), wantM)
		}
		if n > 2 && g.Diameter() != n/2 {
			t.Errorf("Ring(%d).Diameter() = %d, want %d", n, g.Diameter(), n/2)
		}
	}
}

func TestTorus(t *testing.T) {
	for _, tc := range []struct{ n, diam int }{
		{16, 4}, // 4x4
		{12, 3}, // 3x4: 1 + 2
		{7, 3},  // prime: 1x7 ring
		{64, 8}, // 8x8
		{2, 1},  // 1x2
		{100, 10} /* 10x10 */} {
		g, err := Torus(tc.n)
		if err != nil {
			t.Fatalf("Torus(%d): %v", tc.n, err)
		}
		checkInvolution(t, g)
		if g.Diameter() != tc.diam {
			t.Errorf("Torus(%d).Diameter() = %d, want %d", tc.n, g.Diameter(), tc.diam)
		}
	}
}

func TestRandomRegular(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{16, 4}, {50, 3}, {64, 8}, {101, 4}} {
		g, err := RandomRegular(tc.n, tc.d, xrand.New(7))
		if err != nil {
			t.Fatalf("RandomRegular(%d, %d): %v", tc.n, tc.d, err)
		}
		checkInvolution(t, g)
		for u := 0; u < tc.n; u++ {
			if g.Degree(u) != tc.d {
				t.Fatalf("RandomRegular(%d, %d): node %d has degree %d", tc.n, tc.d, u, g.Degree(u))
			}
		}
	}
	if _, err := RandomRegular(5, 3, xrand.New(1)); err == nil {
		t.Error("RandomRegular(5, 3) with odd n·d should fail")
	}
	if _, err := RandomRegular(4, 4, xrand.New(1)); err == nil {
		t.Error("RandomRegular(4, 4) with d >= n should fail")
	}
}

func TestPowerLaw(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{64, 2}, {100, 4}, {3, 2}, {1, 1}} {
		g, err := PowerLaw(tc.n, tc.m, xrand.New(3))
		if err != nil {
			t.Fatalf("PowerLaw(%d, %d): %v", tc.n, tc.m, err)
		}
		checkInvolution(t, g)
	}
	// The hub structure should show: some node well above the attachment
	// degree.
	g, _ := PowerLaw(256, 2, xrand.New(5))
	maxDeg := 0
	for u := 0; u < g.N(); u++ {
		if d := g.Degree(u); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 8 {
		t.Errorf("PowerLaw(256, 2) max degree %d, expected a hub >= 8", maxDeg)
	}
}

func TestFromEdgesValidation(t *testing.T) {
	if _, err := FromEdges(3, [][2]int{{0, 1}, {1, 2}}); err != nil {
		t.Fatalf("path on 3 nodes: %v", err)
	}
	for name, edges := range map[string][][2]int{
		"self-loop":    {{0, 0}, {0, 1}, {1, 2}},
		"duplicate":    {{0, 1}, {1, 0}, {1, 2}},
		"out-of-range": {{0, 3}, {0, 1}, {1, 2}},
		"disconnected": {{0, 1}},
	} {
		if _, err := FromEdges(3, edges); err == nil {
			t.Errorf("FromEdges(%s) should fail", name)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, spec := range []string{"ring", "torus", "rreg:d=4", "power:m=3"} {
		ga, err := Build(spec, 64, 42)
		if err != nil {
			t.Fatalf("Build(%s): %v", spec, err)
		}
		gb, _ := Build(spec, 64, 42)
		if len(ga.adj) != len(gb.adj) {
			t.Fatalf("Build(%s) edge counts differ across identical seeds", spec)
		}
		for i := range ga.adj {
			if ga.adj[i] != gb.adj[i] || ga.back[i] != gb.back[i] {
				t.Fatalf("Build(%s) wiring differs across identical seeds", spec)
			}
		}
		// A different seed must change the seeded generators.
		if spec == "rreg:d=4" || spec == "power:m=3" {
			gc, _ := Build(spec, 64, 43)
			same := len(gc.adj) == len(ga.adj)
			if same {
				for i := range ga.adj {
					if ga.adj[i] != gc.adj[i] {
						same = false
						break
					}
				}
			}
			if same {
				t.Errorf("Build(%s) identical across different seeds", spec)
			}
		}
	}
}

func TestCanonical(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", ""},
		{"clique", ""},
		{" ring ", "ring"},
		{"torus", "torus"},
		{"rreg", "rreg:d=4"},
		{"rreg:d=8", "rreg:d=8"},
		{"power", "power:m=2"},
		{"power:m=4", "power:m=4"},
		{"edges:2-1,0-1", "edges:0-1,1-2"},
	} {
		got, err := Canonical(tc.in)
		if err != nil {
			t.Errorf("Canonical(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("Canonical(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"lattice", "rreg:k=4", "rreg:d=x", "power:m=0", "edges:", "edges:0", "clique:x", "rreg:d=0"} {
		if _, err := Canonical(bad); err == nil {
			t.Errorf("Canonical(%q) should fail", bad)
		}
	}
}

func TestFamily(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", ""}, {"clique", ""}, {"ring", "ring"}, {"rreg:d=8", "rreg"}, {"power:m=4", "power"},
	} {
		got, err := Family(tc.in)
		if err != nil {
			t.Fatalf("Family(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Errorf("Family(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestBuildCliqueAndTrivial(t *testing.T) {
	// The clique is the engines' own wiring: Build has no graph for it.
	for _, spec := range []string{"", "clique"} {
		if g, err := Build(spec, 8, 1); err == nil {
			t.Fatalf("Build(%q) = %T, want an error", spec, g)
		}
	}
	one, err := Build("ring", 1, 1)
	if err != nil {
		t.Fatalf("ring on one node: %v", err)
	}
	if one.M() != 0 || one.Diameter() != 0 || one.Degree(0) != 0 {
		t.Error("trivial ring should have no edges and diameter 0")
	}
}
