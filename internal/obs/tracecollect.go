package obs

// SpanCollector: a bounded in-memory span store (one mutex-guarded ring in
// insertion order, the same shape as EventLog, so one trace may use the
// whole buffer), plus the deterministic Chrome trace-event exporter. One
// collector sits in every electd daemon (backing GET /v1/traces) and one in
// a tracing sweep client (cmd/sweep -trace-out), where coordinator spans and
// the worker spans returned in chunk responses merge into a single
// fleet-wide trace. Every layer builds its records with NewSpan (span.go).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// spanCtxKey carries a SpanContext through a context.Context.
type spanCtxKey struct{}

// ContextWithSpan returns a context carrying sc; SpanFromContext retrieves
// it. This is how the current span identity flows within a process (HTTP
// middleware → handler → client call) between the header hops.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanFromContext returns the span context carried by ctx, or the zero
// (invalid) context when none is.
func SpanFromContext(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc
}

// SpanCollector stores completed spans in one bounded ring kept in
// insertion order: memory is fixed at construction, the newest spans win,
// and the oldest fall off silently. One trace may fill the whole buffer.
// All methods are safe for concurrent use, and every method is
// nil-receiver-safe — a disabled tracing layer is a nil *SpanCollector, and
// its Add costs exactly one nil check (the RoundTrace discipline; the
// simsync allocation-budget test pins the zero-allocation claim).
type SpanCollector struct {
	mu   sync.Mutex
	buf  []Span // ring: buf[head] is the oldest held span once full
	head int
}

// DefaultSpanCapacity bounds a collector built with capacity 0: enough for
// a few hundred fleet requests at ~4 spans each without holding a long
// daemon's full history.
const DefaultSpanCapacity = 4096

// NewSpanCollector builds a collector holding at most capacity spans
// (<= 0 means DefaultSpanCapacity).
func NewSpanCollector(capacity int) *SpanCollector {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &SpanCollector{buf: make([]Span, 0, capacity)}
}

// Add stores one completed span. A nil collector ignores the call.
func (c *SpanCollector) Add(s Span) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if len(c.buf) < cap(c.buf) {
		c.buf = append(c.buf, s)
	} else {
		c.buf[c.head] = s
		c.head = (c.head + 1) % len(c.buf)
	}
	c.mu.Unlock()
}

// AddAll stores a batch of spans (worker spans merged from a chunk
// response). A nil collector ignores the call.
func (c *SpanCollector) AddAll(spans []Span) {
	if c == nil {
		return
	}
	for _, s := range spans {
		c.Add(s)
	}
}

// Len reports how many spans are currently held.
func (c *SpanCollector) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.buf)
}

// Trace returns every held span of one trace, in insertion order (oldest
// first — roughly causal, since parents are recorded after their remote
// children but local emitters record in completion order).
func (c *SpanCollector) Trace(id TraceID) []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Span, 0, 8)
	for i := range c.buf {
		if s := c.buf[(c.head+i)%len(c.buf)]; s.Trace == id {
			out = append(out, s)
		}
	}
	return out
}

// TraceIDs returns the distinct trace ids held, newest-first by the
// insertion order of each trace's most recent span, capped at limit
// (<= 0 means no cap).
func (c *SpanCollector) TraceIDs(limit int) []TraceID {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[TraceID]struct{})
	var out []TraceID
	for i := len(c.buf) - 1; i >= 0; i-- {
		id := c.buf[(c.head+i)%len(c.buf)].Trace
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, id)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// WriteChromeTrace renders spans as Chrome trace-event JSON (the
// "JSON Object Format": a traceEvents array of complete "X" events plus
// process-name metadata), loadable in about:tracing and Perfetto. Output is
// a pure function of the spans: services map to pids in sorted-name order,
// spans sort by (start, trace, span id), and each span is packed into the
// lowest non-overlapping lane (tid) of its service, so the export is
// golden-testable byte for byte.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	sorted := append([]Span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Trace != b.Trace {
			return a.Trace.String() < b.Trace.String()
		}
		return a.ID.String() < b.ID.String()
	})

	// Service → pid, in sorted service-name order.
	services := make([]string, 0, 4)
	seen := make(map[string]int)
	for _, s := range sorted {
		if _, ok := seen[s.Service]; !ok {
			seen[s.Service] = 0
			services = append(services, s.Service)
		}
	}
	sort.Strings(services)
	pid := make(map[string]int, len(services))
	for i, svc := range services {
		pid[svc] = i + 1
	}

	// Lane packing per service: each span takes the lowest tid whose last
	// span ended at or before this span starts.
	laneEnd := make(map[string][]int64, len(services))
	tid := make([]int, len(sorted))
	for i, s := range sorted {
		lanes := laneEnd[s.Service]
		placed := false
		for l, end := range lanes {
			if end <= s.Start {
				lanes[l] = s.End()
				tid[i] = l + 1
				placed = true
				break
			}
		}
		if !placed {
			lanes = append(lanes, s.End())
			tid[i] = len(lanes)
		}
		laneEnd[s.Service] = lanes
	}

	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   int64          `json:"ts"`
		Dur  *int64         `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(sorted)+len(services))
	for _, svc := range services {
		events = append(events, event{
			Name: "process_name", Ph: "M", Pid: pid[svc], Tid: 0,
			Args: map[string]any{"name": svc},
		})
	}
	for i, s := range sorted {
		dur := s.Dur
		args := map[string]any{
			"trace_id": s.Trace.String(),
			"span_id":  s.ID.String(),
		}
		if !s.Parent.IsZero() {
			args["parent_id"] = s.Parent.String()
		}
		for k, v := range s.Attrs {
			args[k] = v
		}
		events = append(events, event{
			Name: s.Name, Cat: s.Service, Ph: "X", Ts: s.Start, Dur: &dur,
			Pid: pid[s.Service], Tid: tid[i], Args: args,
		})
	}

	var b strings.Builder
	b.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
	for i, ev := range events {
		if i > 0 {
			b.WriteByte(',')
		}
		data, err := json.Marshal(ev) // map keys sort, so args are deterministic
		if err != nil {
			return err
		}
		b.Write(data)
	}
	b.WriteString("]}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Waterfall renders an ASCII timeline of root and its descendants among
// spans: one line per span, indented by tree depth, with a bar scaled to
// the subtree's wall-clock window and the duration and attributes printed
// after it. Each line is prefixed with prefix (cmd/sweep passes "# " to
// match its comment footers). Children sort by start time, then span id.
func Waterfall(w io.Writer, prefix string, root Span, spans []Span, width int) {
	if width <= 0 {
		width = 40
	}
	children := make(map[SpanID][]Span)
	for _, s := range spans {
		if !s.Parent.IsZero() {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, cs := range children {
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].Start != cs[j].Start {
				return cs[i].Start < cs[j].Start
			}
			return cs[i].ID.String() < cs[j].ID.String()
		})
	}
	window := root.Dur
	if window <= 0 {
		window = 1
	}
	var walk func(s Span, depth int)
	walk = func(s Span, depth int) {
		off := int((s.Start - root.Start) * int64(width) / window)
		bar := int(s.Dur * int64(width) / window)
		if off < 0 {
			off = 0
		}
		if off > width {
			off = width
		}
		if bar < 1 {
			bar = 1
		}
		if off+bar > width {
			bar = width - off
			if bar < 1 {
				bar, off = 1, width-1
			}
		}
		line := strings.Repeat(" ", off) + strings.Repeat("█", bar) +
			strings.Repeat(" ", width-off-bar)
		label := strings.Repeat("  ", depth) + s.Service + " " + s.Name
		fmt.Fprintf(w, "%s%-*s |%s| %s%s\n", prefix, 34, label, line,
			fmtMicros(s.Dur), fmtAttrs(s.Attrs))
		for _, c := range children[s.ID] {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
}

// fmtMicros renders a microsecond duration compactly (µs/ms/s).
func fmtMicros(us int64) string {
	switch {
	case us >= 1_000_000:
		return fmt.Sprintf("%.2fs", float64(us)/1e6)
	case us >= 1_000:
		return fmt.Sprintf("%.1fms", float64(us)/1e3)
	default:
		return fmt.Sprintf("%dµs", us)
	}
}

// fmtAttrs renders attributes as " k=v" pairs in sorted key order.
func fmtAttrs(attrs map[string]string) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(" ")
		b.WriteString(k)
		b.WriteString("=")
		b.WriteString(attrs[k])
	}
	return b.String()
}
