package trace

import (
	"slices"
	"testing"
	"testing/quick"

	"cliquelect/internal/xrand"
)

func TestEmptyGraphSingletons(t *testing.T) {
	r := NewRecorder(8)
	if r.NumComponents() != 8 {
		t.Fatalf("components = %d", r.NumComponents())
	}
	if r.MaxComponent() != 1 {
		t.Fatalf("max component = %d", r.MaxComponent())
	}
}

func TestMergeChain(t *testing.T) {
	r := NewRecorder(5)
	r.RecordSend(1, 0, 1, true)
	r.RecordSend(1, 2, 3, true)
	if r.NumComponents() != 3 {
		t.Fatalf("components = %d", r.NumComponents())
	}
	r.RecordSend(2, 1, 2, true)
	if r.NumComponents() != 2 {
		t.Fatalf("components = %d", r.NumComponents())
	}
	if r.MaxComponent() != 4 {
		t.Fatalf("max = %d", r.MaxComponent())
	}
}

func TestDirectedEdgesAndDuplicates(t *testing.T) {
	r := NewRecorder(3)
	r.RecordSend(1, 0, 1, true)
	r.RecordSend(1, 0, 1, false) // resend over same port: no new edge
	r.RecordSend(2, 1, 0, true)  // reverse direction: new directed edge
	if r.TotalEdges() != 2 {
		t.Fatalf("edges = %d, want 2", r.TotalEdges())
	}
	if r.RoundEdges(1) != 1 || r.RoundEdges(2) != 1 {
		t.Fatalf("round edges: r1=%d r2=%d", r.RoundEdges(1), r.RoundEdges(2))
	}
	if r.TotalPortOpens() != 2 {
		t.Fatalf("port opens = %d", r.TotalPortOpens())
	}
}

// TestComponentsMatchNaive cross-checks the union-find against a naive BFS
// over random edge sets.
func TestComponentsMatchNaive(t *testing.T) {
	prop := func(seed uint64, nn uint8, mm uint8) bool {
		n := int(nn%20) + 2
		m := int(mm % 40)
		rng := xrand.New(seed)
		r := NewRecorder(n)
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
		}
		for i := 0; i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			r.RecordSend(1, u, v, true)
			adj[u][v], adj[v][u] = true, true
		}
		// Naive BFS component labelling.
		label := make([]int, n)
		for i := range label {
			label[i] = -1
		}
		next := 0
		for s := 0; s < n; s++ {
			if label[s] != -1 {
				continue
			}
			queue := []int{s}
			label[s] = next
			for len(queue) > 0 {
				u := queue[0]
				queue = queue[1:]
				for v := 0; v < n; v++ {
					if adj[u][v] && label[v] == -1 {
						label[v] = next
						queue = append(queue, v)
					}
				}
			}
			next++
		}
		sizes := make([]int, next)
		for _, l := range label {
			sizes[l]++
		}
		return r.NumComponents() == next && r.MaxComponent() == slices.Max(sizes)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundAccounting(t *testing.T) {
	r := NewRecorder(10)
	r.RecordSend(3, 0, 1, true)
	r.RecordSend(3, 0, 2, true)
	r.RecordSend(5, 4, 5, true)
	if r.RoundEdges(3) != 2 || r.RoundEdges(4) != 0 || r.RoundEdges(5) != 1 {
		t.Fatal("round edges wrong")
	}
	if r.RoundEdges(99) != 0 || r.RoundEdges(-1) != 0 {
		t.Fatal("out-of-range rounds should be 0")
	}
}

func TestPortOpensPerNode(t *testing.T) {
	r := NewRecorder(4)
	r.RecordSend(1, 0, 1, true)
	r.RecordSend(1, 0, 2, true)
	r.RecordSend(2, 0, 1, false)
	if r.PortOpens(0) != 2 || r.PortOpens(1) != 0 {
		t.Fatalf("opens: %d, %d", r.PortOpens(0), r.PortOpens(1))
	}
}
