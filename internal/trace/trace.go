// Package trace records the communication graph of a clique execution.
//
// Definition 3.1 of the paper defines the round-r communication graph
// G_r: a directed edge (u,v) exists if u sent a message over a port connected
// to v in some round r' < r. The lower-bound machinery of Section 3 reasons
// entirely about weakly connected components of this graph and their
// "capacity" (Definition 3.2: each node's count of untouched peers inside its
// component). This package maintains that graph incrementally with a
// union-find over weakly connected components, exposing the quantities the
// lower-bound harnesses read: component counts and sizes, per-round edge
// growth, and port-open counts.
//
// Naming note: despite the name, this is NOT request tracing. The
// distributed request-tracing layer of the serving stack — spans,
// traceparent propagation, the /v1/traces endpoints — lives in
// internal/obs (span.go / tracecollect.go). This package is a paper
// instrument; that one is a serving instrument. Neither imports the other.
package trace

// Recorder accumulates communication-graph state for an n-node clique.
// The zero value is unusable; call NewRecorder.
type Recorder struct {
	n int

	parent []int // union-find over weakly connected components
	size   []int

	edges map[[2]int]struct{} // directed (src,dst) pairs seen

	portOpens  []int // per-node count of ports first used for sending
	roundEdges []int // new directed edges per round (index = round, 0 unused)
}

// NewRecorder creates a recorder for n nodes with no edges (the round-1
// communication graph: n singleton components).
func NewRecorder(n int) *Recorder {
	r := &Recorder{
		n:         n,
		parent:    make([]int, n),
		size:      make([]int, n),
		edges:     make(map[[2]int]struct{}),
		portOpens: make([]int, n),
	}
	for i := range r.parent {
		r.parent[i] = i
		r.size[i] = 1
	}
	return r
}

// N returns the number of nodes.
func (r *Recorder) N() int { return r.n }

// RecordSend records that src sent a message to dst in the given round.
// The send opens src's port to dst (a "port open" in the paper's
// terminology) when the link between them has carried no message in either
// direction before: a port is used once a message crossed its link, and in
// a graph without self-loops or duplicate edges the pair {src, dst} names
// that link.
func (r *Recorder) RecordSend(round, src, dst int) {
	for len(r.roundEdges) <= round {
		r.roundEdges = append(r.roundEdges, 0)
	}
	key := [2]int{src, dst}
	if _, dup := r.edges[key]; !dup {
		if _, back := r.edges[[2]int{dst, src}]; !back {
			r.portOpens[src]++
		}
		r.edges[key] = struct{}{}
		r.roundEdges[round]++
	}
	r.union(src, dst)
}

// TotalEdges returns the number of distinct directed (src,dst) pairs
// recorded so far — the edge count of the communication graph.
func (r *Recorder) TotalEdges() int { return len(r.edges) }

// MaxComponent returns the size of the largest weakly connected component.
func (r *Recorder) MaxComponent() int {
	best := 0
	for u := 0; u < r.n; u++ {
		if r.parent[u] == u && r.size[u] > best {
			best = r.size[u]
		}
	}
	if best == 0 && r.n > 0 {
		best = 1
	}
	return best
}

// NumComponents returns the number of weakly connected components.
func (r *Recorder) NumComponents() int {
	c := 0
	for u := 0; u < r.n; u++ {
		if r.find(u) == u {
			c++
		}
	}
	return c
}

// PortOpens returns the number of distinct ports node u has opened (first
// sends). The Theorem 3.11 harness counts these: Ω(n log n) port opens imply
// Ω(n log n) messages.
func (r *Recorder) PortOpens(u int) int { return r.portOpens[u] }

// TotalPortOpens returns the total number of port-open events.
func (r *Recorder) TotalPortOpens() int {
	t := 0
	for _, c := range r.portOpens {
		t += c
	}
	return t
}

// RoundEdges returns the number of new directed edges first seen in the
// given round, or 0 if out of range.
func (r *Recorder) RoundEdges(round int) int {
	if round < 0 || round >= len(r.roundEdges) {
		return 0
	}
	return r.roundEdges[round]
}

func (r *Recorder) find(u int) int {
	for r.parent[u] != u {
		r.parent[u] = r.parent[r.parent[u]]
		u = r.parent[u]
	}
	return u
}

func (r *Recorder) union(u, v int) {
	ru, rv := r.find(u), r.find(v)
	if ru == rv {
		return
	}
	if r.size[ru] < r.size[rv] {
		ru, rv = rv, ru
	}
	r.parent[rv] = ru
	r.size[ru] += r.size[rv]
}
