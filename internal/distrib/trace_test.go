package distrib_test

import (
	"strings"
	"testing"

	"cliquelect/elect"

	. "cliquelect/internal/distrib"
	"cliquelect/internal/obs"
)

// TestFleetTraceSingleTraceID is the end-to-end tracing contract: a grid
// dispatched to two workers produces ONE trace — grid, chunk.dispatch,
// client request/attempt, and the worker-side serve/queue/exec spans all
// share the root's trace id, and the tree is fully connected. The second
// input packs the 97 spans of 16 one-cell chunks into a 256-span collector:
// one trace may use the whole buffer, so every chunk's spans survive.
func TestFleetTraceSingleTraceID(t *testing.T) {
	for _, tc := range []struct {
		name          string
		capacity      int
		ns            []int
		seeds, chunks int  // chunks: chunk.dispatch and chunk.serve spans expected
		exact         bool // exactly chunks, not at least
	}{
		// multiChunkGrid's 16 cells → 4 chunks.
		{"default-capacity", 0, []int{16, 256}, 8, 4, false},
		// 16 cells at n = 512, each past the weight budget → 16 chunks.
		{"one-cell-chunks", 256, []int{512}, 16, 16, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testFleetTrace(t, tc.capacity, tc.ns, tc.seeds, tc.chunks, tc.exact)
		})
	}
}

func testFleetTrace(t *testing.T, capacity int, ns []int, seeds, chunks int, exact bool) {
	b, wire := testGrid()
	b.Ns, b.Seeds = ns, elect.Seeds(1, seeds)
	spec := mustSpec(t, "tradeoff")

	col := obs.NewSpanCollector(capacity)
	root := obs.NewSpanContext()
	w1, w2 := newHarness(t), newHarness(t)
	fleet := newFleet(t, Config{Spans: col, Root: root}, w1, w2)
	remote := b
	remote.Remote = fleet.Runner(wire)
	if _, err := elect.RunMany(spec, remote); err != nil {
		t.Fatal(err)
	}

	spans := col.Trace(root.Trace)
	if len(spans) == 0 {
		t.Fatalf("no spans under root trace %s; collector holds %d spans", root.Trace, col.Len())
	}
	byID := map[obs.SpanID]obs.Span{}
	count := map[string]int{}
	for _, sp := range spans {
		if sp.Trace != root.Trace {
			t.Fatalf("span %s escaped the trace: %s", sp.Name, sp.Trace)
		}
		byID[sp.ID] = sp
		count[sp.Name]++
	}
	for _, name := range []string{
		"grid", "chunk.dispatch", "client.request", "client.attempt",
		"chunk.serve", "queue.wait", "job.exec",
	} {
		if count[name] == 0 {
			t.Errorf("no %s span in trace (have %v)", name, count)
		}
	}
	// Each chunk has a dispatch span and a worker-side subtree.
	d, sv := count["chunk.dispatch"], count["chunk.serve"]
	if exact && (d != chunks || sv != chunks) || d < chunks || sv < chunks {
		t.Errorf("span counts %v, want %d dispatches and serves (exact=%v)", count, chunks, exact)
	}
	// Connectivity: every span's parent is either the external root span or
	// another span in the trace.
	for _, sp := range spans {
		if sp.Parent == root.Span {
			continue
		}
		if _, ok := byID[sp.Parent]; !ok {
			t.Errorf("span %s (%s) has unknown parent %s", sp.Name, sp.ID, sp.Parent)
		}
	}
	// Both workers appear in the dispatch attrs.
	workers := map[string]bool{}
	for _, sp := range spans {
		if sp.Name == "chunk.dispatch" {
			workers[sp.Attrs["worker"]] = true
		}
	}
	if len(workers) != 2 {
		t.Errorf("dispatch spans name %d workers, want 2: %v", len(workers), workers)
	}
	// The merged set renders as valid Chrome trace-event JSON.
	var out strings.Builder
	if err := obs.WriteChromeTrace(&out, spans); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"displayTimeUnit":"ms"`, `"name":"chunk.dispatch"`, `"name":"job.exec"`} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("chrome export missing %s", want)
		}
	}
}

// TestFleetUntracedByDefault pins the disabled path: without a collector or
// root, dispatch sends no traceparent and records nothing.
func TestFleetUntracedByDefault(t *testing.T) {
	b, wire := testGrid()
	spec := mustSpec(t, "tradeoff")
	w1 := newHarness(t)
	fleet := newFleet(t, Config{}, w1)
	remote := b
	remote.Remote = fleet.Runner(wire)
	if _, err := elect.RunMany(spec, remote); err != nil {
		t.Fatal(err)
	}
	// The worker daemon roots its own handler traces either way; what must
	// NOT happen is coordinator-side span creation.
	if fleet.ConfiguredSpans().Len() != 0 {
		t.Fatal("untraced fleet recorded spans")
	}
}
