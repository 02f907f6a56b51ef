// Package topo provides the general-graph topology layer under the sync
// engine: a Graph is the wiring of a simulated network — node count,
// per-node degrees, and the port-to-port involution messages travel over.
//
// The paper's clique model (internal/portmap) is the degenerate case where
// every node has n-1 ports; this package generalizes the wiring to arbitrary
// connected graphs so the sync engine can execute the general-graph
// protocols in the paper's lineage (Kutten–Moses Jr. et al., arXiv
// 2008.02782; KPPRT, arXiv 1210.4822) on rings, tori, random-regular and
// power-law graphs.
//
// Explicit graphs are stored in compact CSR adjacency — flat []uint32 offset
// and edge tables in the arena/flatmap style of the engine hot paths — so
// million-node sparse graphs cost a few machine words per edge and zero
// per-node allocations. The clique has no Graph here: the engines wire it
// themselves (internal/portmap), and it is never materialized.
//
// Determinism: every generator is a pure function of (n, parameters, seed).
// The same spec string and seed produce the identical graph — edge order,
// port numbering and diameter estimate included — on every platform, which
// is what lets topology-axis sweeps share the content-addressed result
// cache.
package topo

import (
	"fmt"
	"slices"
)

// Graph is a CSR-encoded explicit topology: a fixed wiring of n nodes.
// Ports are 0-based and per-node: node u owns ports 0..Degree(u)-1, and
// Dest is a bijective involution exactly like portmap.Map's. off[u]..off[u+1]
// indexes u's row in adj (neighbors, ascending) and back (the arrival port
// on each neighbor). Two flat []uint32 tables per direction, nothing per
// node. A Graph is immutable after construction and safe for concurrent
// readers.
type Graph struct {
	n    int
	off  []uint32
	adj  []uint32
	back []uint32
	diam int
}

// maxNodes bounds explicit graphs so CSR indices fit in uint32.
const maxNodes int64 = 1 << 31 // int64: 2³¹ overflows a 32-bit int

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int64 { return int64(len(g.adj)) / 2 }

// Degree returns the number of ports of node u.
func (g *Graph) Degree(u int) int { return int(g.off[u+1] - g.off[u]) }

// Dest returns the node and arrival port on the far end of (u, p): if
// Dest(u, p) = (v, q) then Dest(v, q) = (u, p) and v != u.
func (g *Graph) Dest(u, p int) (int, int) {
	k := g.off[u] + uint32(p)
	return int(g.adj[k]), int(g.back[k])
}

// Diameter returns the graph's diameter estimate: the double-sweep BFS
// lower bound, which is exact on the symmetric generators here (ring,
// torus) and within a factor 2 of the truth on any graph. Protocols use it
// as a safe hop-count horizon.
func (g *Graph) Diameter() int { return g.diam }

// newGraph builds the CSR tables from an undirected edge list. It rejects
// self-loops, duplicate edges, out-of-range endpoints and disconnected
// graphs — every Graph handed to an engine is a simple connected graph.
func newGraph(n int, edges [][2]int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("topo: n = %d", n)
	}
	if int64(n) > maxNodes {
		return nil, fmt.Errorf("topo: n = %d exceeds the %d-node CSR limit", n, maxNodes)
	}
	g := &Graph{n: n, off: make([]uint32, n+1)}
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("topo: edge (%d, %d) outside [0, %d)", u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("topo: self-loop at node %d", u)
		}
		g.off[u+1]++
		g.off[v+1]++
	}
	for u := 0; u < n; u++ {
		g.off[u+1] += g.off[u]
	}
	g.adj = make([]uint32, 2*len(edges))
	fill := make([]uint32, n) // next free slot per row
	for _, e := range edges {
		u, v := uint32(e[0]), uint32(e[1])
		g.adj[g.off[u]+fill[u]] = v
		g.adj[g.off[v]+fill[v]] = u
		fill[u]++
		fill[v]++
	}
	for u := 0; u < n; u++ {
		row := g.adj[g.off[u]:g.off[u+1]]
		slices.Sort(row)
		for i := 1; i < len(row); i++ {
			if row[i] == row[i-1] {
				return nil, fmt.Errorf("topo: duplicate edge (%d, %d)", u, row[i])
			}
		}
	}
	// back[k] is the index of u inside the (sorted) row of adj[k]: the port
	// a message sent on (u, k-off[u]) arrives on.
	g.back = make([]uint32, len(g.adj))
	for u := 0; u < n; u++ {
		uu := uint32(u)
		for k := g.off[u]; k < g.off[u+1]; k++ {
			v := g.adj[k]
			row := g.adj[g.off[v]:g.off[v+1]]
			q, _ := slices.BinarySearch(row, uu)
			g.back[k] = uint32(q)
		}
	}
	if err := g.connect(); err != nil {
		return nil, err
	}
	return g, nil
}

// connect verifies connectivity and sets the double-sweep diameter estimate:
// BFS from node 0 finds an eccentric node a, BFS from a reports ecc(a). The
// second sweep's eccentricity lower-bounds the diameter everywhere and
// equals it on the vertex-transitive generators (ring, torus).
func (g *Graph) connect() error {
	if g.n == 1 {
		g.diam = 0
		return nil
	}
	dist := make([]int32, g.n)
	queue := make([]uint32, 0, g.n)
	far, seen := g.bfs(0, dist, queue)
	if seen != g.n {
		return fmt.Errorf("topo: graph is disconnected (%d of %d nodes reachable from node 0)", seen, g.n)
	}
	a, _ := g.bfs(far, dist, queue)
	g.diam = int(dist[a])
	return nil
}

// bfs runs one sweep from src, filling dist (scratch, overwritten) and
// returning the farthest node plus the number of nodes reached.
func (g *Graph) bfs(src uint32, dist []int32, queue []uint32) (far uint32, seen int) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	far = src
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		seen++
		for k := g.off[u]; k < g.off[u+1]; k++ {
			v := g.adj[k]
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				if dist[v] > dist[far] {
					far = v
				}
				queue = append(queue, v)
			}
		}
	}
	return far, seen
}
