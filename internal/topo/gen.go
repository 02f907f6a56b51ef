package topo

import (
	"fmt"
	"slices"

	"cliquelect/internal/xrand"
)

// Ring returns the cycle on n nodes (n = 2 is the single edge, n = 1 the
// trivial graph). Every node has degree 2 (1 at n = 2) and the diameter is
// floor(n/2) — the high-diameter extreme of the generator family.
func Ring(n int) (*Graph, error) {
	return newGraph(n, cycleEdges(nil, n, 0, 1))
}

// Torus returns the 2-dimensional r x c wraparound grid with r·c = n, where
// r is the largest divisor of n with r <= sqrt(n) — the squarest torus n
// admits. Prime n degenerates to a 1 x n torus, i.e. a ring. Diameter is
// floor(r/2) + floor(c/2).
func Torus(n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("topo: n = %d", n)
	}
	r := 1
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			r = d
		}
	}
	c := n / r
	var edges [][2]int
	for i := 0; i < r; i++ {
		// Row cycle: nodes i*c .. i*c+c-1 left to right.
		edges = cycleEdges(edges, c, i*c, 1)
	}
	for j := 0; j < c; j++ {
		// Column cycle: nodes j, j+c, j+2c, ...
		edges = cycleEdges(edges, r, j, c)
	}
	return newGraph(n, edges)
}

// cycleEdges appends the edges of a cycle over the L nodes base, base+step,
// ..., base+(L-1)*step. L = 2 contributes the single edge (no doubled
// wraparound), L = 1 contributes nothing.
func cycleEdges(edges [][2]int, L, base, step int) [][2]int {
	for x := 0; x+1 < L; x++ {
		edges = append(edges, [2]int{base + x*step, base + (x+1)*step})
	}
	if L > 2 {
		edges = append(edges, [2]int{base + (L-1)*step, base})
	}
	return edges
}

// regularAttempts bounds the swap-then-check loop of RandomRegular: a
// randomization pass whose result came out disconnected is rethrown. The
// circulant start is connected and double-edge swaps disconnect only rarely,
// so in practice the first attempt succeeds; the bound turns pathological
// parameters (d = 1 with n > 2, where no connected regular graph exists)
// into an error instead of a spin.
const regularAttempts = 200

// RandomRegular returns a random simple connected d-regular graph on n nodes
// by the switch-chain construction: start from the connected circulant
// d-regular graph (each node linked to its d/2 nearest ring neighbors on each
// side, plus the antipode when d is odd) and randomize it with ~10·n·d
// degree-preserving double-edge swaps, accepting only swaps that keep the
// graph simple. The chain mixes to near-uniform over simple d-regular graphs
// and, unlike pairing-model rejection, never stalls at larger d. n·d must be
// even and 1 <= d < n.
func RandomRegular(n, d int, rng *xrand.RNG) (*Graph, error) {
	if n == 1 && d == 0 {
		return newGraph(1, nil)
	}
	if d < 1 || d >= n {
		return nil, fmt.Errorf("topo: random-regular degree d = %d with n = %d, need 1 <= d < n", d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("topo: random-regular n·d = %d·%d is odd", n, d)
	}
	base := circulantEdges(n, d)
	for attempt := 0; attempt < regularAttempts; attempt++ {
		edges := slices.Clone(base)
		present := make(map[[2]int]struct{}, len(edges))
		for _, e := range edges {
			present[e] = struct{}{}
		}
		// Double-edge swap: replace {a-b, c-e} with {a-c, b-e}, keeping both
		// orientations reachable by randomly flipping one edge first.
		for s := 0; s < 10*len(edges); s++ {
			i := rng.Intn(len(edges))
			j := rng.Intn(len(edges))
			if i == j {
				continue
			}
			a, b := edges[i][0], edges[i][1]
			c, e := edges[j][0], edges[j][1]
			if rng.Bernoulli(0.5) {
				c, e = e, c
			}
			n1, n2 := normEdge(a, c), normEdge(b, e)
			if a == c || b == e {
				continue // would create a self-loop
			}
			if _, dup := present[n1]; dup {
				continue
			}
			if _, dup := present[n2]; dup {
				continue
			}
			delete(present, edges[i])
			delete(present, edges[j])
			present[n1] = struct{}{}
			present[n2] = struct{}{}
			edges[i], edges[j] = n1, n2
		}
		g, err := newGraph(n, edges)
		if err != nil {
			continue // randomization disconnected the graph: rethrow
		}
		return g, nil
	}
	return nil, fmt.Errorf("topo: no simple connected %d-regular graph on %d nodes after %d attempts (d >= 2 required for n > 2)",
		d, n, regularAttempts)
}

// circulantEdges returns the edges of the connected circulant d-regular graph
// on n nodes: chords to the k nearest ring neighbors on each side for
// k = 1..d/2, plus antipodal chords when d is odd (n is even then, since n·d
// is even). Edges are normalized u < v.
func circulantEdges(n, d int) [][2]int {
	edges := make([][2]int, 0, n*d/2)
	for k := 1; k <= d/2; k++ {
		for u := 0; u < n; u++ {
			edges = append(edges, normEdge(u, (u+k)%n))
		}
	}
	if d%2 == 1 {
		for u := 0; u < n/2; u++ {
			edges = append(edges, normEdge(u, u+n/2))
		}
	}
	return edges
}

// normEdge orders an undirected edge's endpoints as u < v.
func normEdge(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// PowerLaw returns a Barabási–Albert preferential-attachment graph: starting
// from a complete graph on m+1 seed nodes, every further node attaches to m
// distinct existing nodes drawn proportionally to their current degree (by
// sampling the endpoint multiset, resampling duplicates). The result is
// connected by construction, has m·n + O(m^2) edges and a power-law degree
// tail — the low-diameter, hub-heavy counterpoint to Ring. n <= m+1 returns
// the complete graph on n nodes.
func PowerLaw(n, m int, rng *xrand.RNG) (*Graph, error) {
	if m < 1 {
		return nil, fmt.Errorf("topo: power-law attachment m = %d, need m >= 1", m)
	}
	if n < 1 {
		return nil, fmt.Errorf("topo: n = %d", n)
	}
	seed := min(m, n-1) + 1 // m+1 seed nodes, at most n; m+1 may overflow
	var edges [][2]int
	// targets is the degree-weighted endpoint multiset: each edge appends
	// both endpoints, so drawing uniformly from it is preferential
	// attachment.
	var targets []int
	addEdge := func(u, v int) {
		edges = append(edges, [2]int{u, v})
		targets = append(targets, u, v)
	}
	for u := 0; u < seed; u++ {
		for v := u + 1; v < seed; v++ {
			addEdge(u, v)
		}
	}
	picked := make([]int, 0, min(m, n))
	for u := seed; u < n; u++ {
		picked = picked[:0]
		for len(picked) < m {
			v := targets[rng.Intn(len(targets))]
			if !slices.Contains(picked, v) {
				picked = append(picked, v)
			}
		}
		for _, v := range picked {
			addEdge(u, v)
		}
	}
	return newGraph(n, edges)
}

// FromEdges returns the explicit graph over the given undirected edge list.
// The list must describe a simple connected graph on [0, n).
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	return newGraph(n, edges)
}

// edgesName renders the canonical "edges:u-v,..." spec of an explicit edge
// list: endpoints normalized to u < v, pairs sorted lexicographically.
func edgesName(edges [][2]int) string {
	norm := make([][2]int, len(edges))
	for i, e := range edges {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		norm[i] = [2]int{u, v}
	}
	slices.SortFunc(norm, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	out := []byte("edges:")
	for i, e := range norm {
		if i > 0 {
			out = append(out, ',')
		}
		out = fmt.Appendf(out, "%d-%d", e[0], e[1])
	}
	return string(out)
}
