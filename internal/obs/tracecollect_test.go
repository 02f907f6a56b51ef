package obs

import (
	"strings"
	"sync"
	"testing"
)

// mkSpan builds a deterministic span for collector tests: trace id from
// tr (repeated byte), span id from id.
func mkSpan(tr, id byte, name string) Span {
	var s Span
	for i := range s.Trace {
		s.Trace[i] = tr
	}
	s.ID[7] = id
	s.Name = name
	s.Service = "test"
	return s
}

func TestSpanCollectorBasics(t *testing.T) {
	c := NewSpanCollector(64)
	c.Add(mkSpan(1, 1, "a"))
	c.Add(mkSpan(2, 1, "b"))
	c.Add(mkSpan(1, 2, "c"))
	if got := c.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	tr := mkSpan(1, 0, "").Trace
	spans := c.Trace(tr)
	if len(spans) != 2 || spans[0].Name != "a" || spans[1].Name != "c" {
		t.Fatalf("Trace returned %+v", spans)
	}
	if got := c.Trace(mkSpan(9, 0, "").Trace); len(got) != 0 {
		t.Fatalf("unknown trace returned %+v", got)
	}
	// Newest-first orders: span "c" was added last, so trace 1 leads.
	ids := c.TraceIDs(10)
	if len(ids) != 2 || ids[0] != tr {
		t.Fatalf("TraceIDs = %v", ids)
	}
	if got := c.TraceIDs(1); len(got) != 1 {
		t.Fatalf("limit ignored: %v", got)
	}
}

// TestSpanCollectorBounded adds spans of one trace to rings of exact
// capacity: a capacity-4 ring filled far past capacity keeps only the
// newest four, and a capacity-64 ring given 64 spans keeps them all (there
// is no per-trace cap). Trace returns the survivors oldest first.
func TestSpanCollectorBounded(t *testing.T) {
	for _, tc := range []struct{ capacity, adds int }{{4, 100}, {64, 64}} {
		c := NewSpanCollector(tc.capacity)
		for i := 0; i < tc.adds; i++ {
			s := mkSpan(3, byte(i), "s")
			s.Start = int64(i)
			c.Add(s)
		}
		got := c.Trace(mkSpan(3, 0, "").Trace)
		if c.Len() != tc.capacity || len(got) != tc.capacity {
			t.Fatalf("capacity %d: ring holds %d, Trace returned %d", tc.capacity, c.Len(), len(got))
		}
		first := tc.adds - tc.capacity
		for i, s := range got {
			if s.Start != int64(first+i) {
				t.Fatalf("capacity %d: span %d is %d, want the newest %d oldest first",
					tc.capacity, i, s.Start, tc.capacity)
			}
		}
	}
}

// TestSpanCollectorTraceIDsNewestFirst checks the recency order across a
// wrapped ring: a trace's rank is set by its most recent held span.
func TestSpanCollectorTraceIDsNewestFirst(t *testing.T) {
	c := NewSpanCollector(3)
	for _, tr := range []byte{1, 2, 3, 1, 4, 2} { // ring keeps 1, 4, 2
		c.Add(mkSpan(tr, tr, "s"))
	}
	ids := c.TraceIDs(0)
	want := []byte{2, 4, 1}
	if len(ids) != len(want) {
		t.Fatalf("TraceIDs = %v, want traces %v", ids, want)
	}
	for i, tr := range want {
		if ids[i] != mkSpan(tr, 0, "").Trace {
			t.Fatalf("TraceIDs[%d] = %s, want trace %d", i, ids[i], tr)
		}
	}
}

// TestNilSpanCollector pins the disabled-path contract: every method of a
// nil collector is a safe no-op, so call sites guard with nothing but the
// nil receiver.
func TestNilSpanCollector(t *testing.T) {
	var c *SpanCollector
	c.Add(mkSpan(1, 1, "x"))
	c.AddAll([]Span{mkSpan(1, 2, "y")})
	if c.Len() != 0 || c.Trace(TraceID{}) != nil || c.TraceIDs(5) != nil {
		t.Fatal("nil collector not inert")
	}
}

// TestNilSpanCollectorAddAllocs pins "a disabled tracing layer costs a nil
// check": emitting through a nil collector must not allocate at all (the
// serving-stack counterpart of the engines' nil RoundTrace guard; the
// simsync allocation-budget test holds the same line inside the round
// loop).
func TestNilSpanCollectorAddAllocs(t *testing.T) {
	var c *SpanCollector
	s := mkSpan(4, 4, "noop")
	allocs := testing.AllocsPerRun(100, func() {
		c.Add(s)
		c.AddAll(nil)
	})
	if allocs != 0 {
		t.Fatalf("nil-collector Add allocated %.1f times per op, want 0", allocs)
	}
}

// TestSpanCollectorConcurrent is the -race hammer: writers of many traces
// racing readers of every accessor.
func TestSpanCollectorConcurrent(t *testing.T) {
	c := NewSpanCollector(256)
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Add(mkSpan(byte(w), byte(i), "s"))
				if i%16 == 0 {
					c.AddAll([]Span{mkSpan(byte(w), byte(i), "batch")})
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = c.Trace(mkSpan(byte(r), 0, "").Trace)
				_ = c.TraceIDs(10)
				_ = c.Len()
			}
		}(r)
	}
	wg.Wait()
	if c.Len() == 0 {
		t.Fatal("hammer left collector empty")
	}
}

// TestWriteChromeTraceGolden pins the export byte for byte: fixed spans in
// scrambled input order must render the exact trace-event JSON, with
// services mapped to pids in sorted order, spans sorted by start time, and
// overlap-free lane assignment.
func TestWriteChromeTraceGolden(t *testing.T) {
	tr := mkSpan(7, 0, "").Trace
	root := Span{Trace: tr, ID: SpanID{0, 0, 0, 0, 0, 0, 0, 1},
		Name: "sweep", Service: "sweep", Start: 1000, Dur: 500}
	disp := Span{Trace: tr, ID: SpanID{0, 0, 0, 0, 0, 0, 0, 2}, Parent: root.ID,
		Name: "chunk.dispatch", Service: "sweep", Start: 1100, Dur: 300,
		Attrs: map[string]string{"worker": "http://w1", "cells": "8"}}
	exec := Span{Trace: tr, ID: SpanID{0, 0, 0, 0, 0, 0, 0, 3}, Parent: disp.ID,
		Name: "job.exec", Service: "electd", Start: 1150, Dur: 200}
	// Scrambled input order; the exporter must sort.
	var b strings.Builder
	if err := WriteChromeTrace(&b, []Span{exec, disp, root}); err != nil {
		t.Fatal(err)
	}
	want := `{"displayTimeUnit":"ms","traceEvents":[` +
		`{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"electd"}},` +
		`{"name":"process_name","ph":"M","ts":0,"pid":2,"tid":0,"args":{"name":"sweep"}},` +
		`{"name":"sweep","cat":"sweep","ph":"X","ts":1000,"dur":500,"pid":2,"tid":1,` +
		`"args":{"span_id":"0000000000000001","trace_id":"07070707070707070707070707070707"}},` +
		`{"name":"chunk.dispatch","cat":"sweep","ph":"X","ts":1100,"dur":300,"pid":2,"tid":2,` +
		`"args":{"cells":"8","parent_id":"0000000000000001","span_id":"0000000000000002",` +
		`"trace_id":"07070707070707070707070707070707","worker":"http://w1"}},` +
		`{"name":"job.exec","cat":"electd","ph":"X","ts":1150,"dur":200,"pid":1,"tid":1,` +
		`"args":{"parent_id":"0000000000000002","span_id":"0000000000000003",` +
		`"trace_id":"07070707070707070707070707070707"}}]}` + "\n"
	if b.String() != want {
		t.Fatalf("chrome export drifted:\n got: %s\nwant: %s", b.String(), want)
	}
}

// TestWaterfall smoke-checks the ASCII renderer: every span of the subtree
// appears, indented, with a bar inside the window.
func TestWaterfall(t *testing.T) {
	tr := mkSpan(8, 0, "").Trace
	root := Span{Trace: tr, ID: SpanID{0, 0, 0, 0, 0, 0, 0, 1},
		Name: "chunk.dispatch", Service: "sweep", Start: 0, Dur: 1000}
	child := Span{Trace: tr, ID: SpanID{0, 0, 0, 0, 0, 0, 0, 2}, Parent: root.ID,
		Name: "job.exec", Service: "electd", Start: 500, Dur: 400,
		Attrs: map[string]string{"job": "j1"}}
	var b strings.Builder
	Waterfall(&b, "# ", root, []Span{root, child}, 20)
	out := b.String()
	for _, want := range []string{"chunk.dispatch", "  electd job.exec", "job=j1", "█"} {
		if !strings.Contains(out, want) {
			t.Fatalf("waterfall missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !strings.HasPrefix(line, "# ") {
			t.Fatalf("line %q missing prefix", line)
		}
	}
}
