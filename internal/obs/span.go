package obs

// This file is the distributed request-tracing half of the observability
// core: 128-bit trace / 64-bit span identities, the W3C traceparent header
// codec that carries them across process hops, and the Span record every
// layer of the serving stack emits. The collector and the Chrome
// trace-event exporter live in tracecollect.go.
//
// Naming note: this is REQUEST tracing — the causal story of one serving
// request across client, coordinator and worker daemons. It is unrelated to
// internal/trace, which records the communication graph G_r of a clique
// execution for the paper's lower-bound machinery (Definition 3.1). The two
// never import each other.

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"time"
)

// TraceID is a 128-bit trace identity, rendered as 32 lowercase hex digits
// (the W3C trace-context trace-id field). The zero value is invalid.
type TraceID [16]byte

// SpanID is a 64-bit span identity, rendered as 16 lowercase hex digits
// (the W3C parent-id field). The zero value means "no span".
type SpanID [8]byte

// IsZero reports the invalid all-zero id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports the invalid all-zero id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the id as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the id as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// MarshalText renders the hex form (JSON wire format of span records).
func (t TraceID) MarshalText() ([]byte, error) { return hexAppend(t[:]), nil }

// UnmarshalText parses the hex form.
func (t *TraceID) UnmarshalText(b []byte) error { return hexInto(t[:], b, "trace id") }

// MarshalText renders the hex form.
func (s SpanID) MarshalText() ([]byte, error) { return hexAppend(s[:]), nil }

// UnmarshalText parses the hex form.
func (s *SpanID) UnmarshalText(b []byte) error { return hexInto(s[:], b, "span id") }

func hexAppend(b []byte) []byte {
	out := make([]byte, hex.EncodedLen(len(b)))
	hex.Encode(out, b)
	return out
}

func hexInto(dst, src []byte, what string) error {
	if len(src) != hex.EncodedLen(len(dst)) {
		return fmt.Errorf("obs: %s %q is not %d hex digits", what, src, hex.EncodedLen(len(dst)))
	}
	_, err := hex.Decode(dst, src)
	return err
}

// ParseTraceID parses 32 hex digits; ok is false for anything else
// (including the all-zero id, which the spec declares invalid).
func ParseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if hexInto(t[:], []byte(s), "trace id") != nil || t.IsZero() {
		return TraceID{}, false
	}
	return t, true
}

// SpanContext is the propagated identity of one span: which trace it
// belongs to and which span is current. It is what rides the traceparent
// header between processes and the request context within one.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether both ids are set.
func (c SpanContext) Valid() bool { return !c.Trace.IsZero() && !c.Span.IsZero() }

// NewSpanContext mints a fresh root context: a new random trace id and a
// new random span id. Randomness comes from crypto/rand (falling back to
// the clock on a broken platform), never from the engines' seeded streams —
// tracing must not perturb a single protocol coin flip.
func NewSpanContext() SpanContext {
	var c SpanContext
	fillRandom(c.Trace[:])
	fillRandom(c.Span[:])
	return c
}

// Child returns a context in the same trace with a fresh span id — the
// identity of a new child span whose parent is c.Span. The child of an
// invalid context is a fresh root (NewSpanContext), so callers that may or
// may not have inherited a trace need no branch.
func (c SpanContext) Child() SpanContext {
	if !c.Valid() {
		return NewSpanContext()
	}
	out := SpanContext{Trace: c.Trace}
	fillRandom(out.Span[:])
	return out
}

func fillRandom(b []byte) {
	if _, err := rand.Read(b); err != nil {
		// crypto/rand failing is a broken platform; derive uniqueness from
		// the clock rather than emitting zero (= invalid) ids.
		now := uint64(time.Now().UnixNano())
		for i := range b {
			b[i] = byte(now >> (8 * (uint(i) % 8)))
			if b[i] == 0 {
				b[i] = 1
			}
		}
	}
}

// traceparent version and flags: we always emit version 00 with the
// "sampled" flag set, and accept any flags on parse.
const traceparentLen = len("00-00000000000000000000000000000000-0000000000000000-00")

// Traceparent renders the W3C trace-context header value,
// "00-<trace-id>-<parent-id>-01". An invalid context renders "".
func (c SpanContext) Traceparent() string {
	if !c.Valid() {
		return ""
	}
	b := make([]byte, 0, traceparentLen)
	b = append(b, '0', '0', '-')
	b = append(b, hexAppend(c.Trace[:])...)
	b = append(b, '-')
	b = append(b, hexAppend(c.Span[:])...)
	b = append(b, '-', '0', '1')
	return string(b)
}

// ParseTraceparent parses a W3C traceparent header value. It requires the
// fixed 2-32-16-2 field layout in lowercase hex, accepts any version except
// the reserved "ff", and rejects all-zero trace or span ids (the spec's
// invalid values). Unknown trailing fields are tolerated only behind a
// further "-", and only for versions after 00, which has none.
func ParseTraceparent(s string) (SpanContext, bool) {
	if len(s) < traceparentLen || s[0:2] == "ff" {
		return SpanContext{}, false
	}
	if len(s) > traceparentLen && (s[0:2] == "00" || s[traceparentLen] != '-') {
		return SpanContext{}, false
	}
	for i := range traceparentLen {
		if i == 2 || i == 35 || i == 52 {
			if s[i] != '-' {
				return SpanContext{}, false
			}
		} else if !('0' <= s[i] && s[i] <= '9' || 'a' <= s[i] && s[i] <= 'f') {
			return SpanContext{}, false
		}
	}
	var c SpanContext // the digits are checked above, so Decode cannot fail
	hex.Decode(c.Trace[:], []byte(s[3:35]))
	hex.Decode(c.Span[:], []byte(s[36:52]))
	if !c.Valid() {
		return SpanContext{}, false
	}
	return c, true
}

// Span is one completed operation in a trace: a named interval with a
// parent link, the service that performed it, and a small bag of string
// attributes. Timestamps are microseconds since the Unix epoch (the native
// unit of the Chrome trace-event format), durations microseconds too.
//
// The JSON form (snake_case tags, hex ids, sorted attr keys — encoding/json
// sorts map keys) is the wire format spans travel in: trailing in chunk
// responses, and as the body of electd's /v1/traces endpoints.
type Span struct {
	Trace  TraceID `json:"trace_id"`
	ID     SpanID  `json:"span_id"`
	Parent SpanID  `json:"parent_id,omitzero"`
	// Name is the operation ("queue.wait", "chunk.dispatch", a route);
	// Service the component that performed it ("client", "electd", "sweep").
	Name    string `json:"name"`
	Service string `json:"service"`
	// Start is microseconds since the Unix epoch; Dur the duration in
	// microseconds (0 for instant events).
	Start int64 `json:"start_us"`
	Dur   int64 `json:"dur_us"`
	// Attrs carries small string annotations (attempt numbers, worker URLs,
	// job ids). Nil for attribute-free spans — the common case — so span
	// emission on the disabled path allocates nothing.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// NewSpan builds the record of one completed span: sc is its identity,
// parent the span it hangs under (zero for a root), and start/dur the wall
// clock interval, stored in the record's microsecond units.
func NewSpan(sc SpanContext, parent SpanID, name, svc string, start time.Time, dur time.Duration, attrs map[string]string) Span {
	return Span{
		Trace: sc.Trace, ID: sc.Span, Parent: parent,
		Name: name, Service: svc,
		Start: start.UnixMicro(), Dur: dur.Microseconds(),
		Attrs: attrs,
	}
}

// End returns the span's end time in epoch microseconds.
func (s Span) End() int64 { return s.Start + s.Dur }
