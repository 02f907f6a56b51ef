package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestTraceparentRoundTrip drives the encode/parse pair through a
// fuzz-style table: every minted context must survive the header round
// trip, and every malformed header must be rejected.
func TestTraceparentRoundTrip(t *testing.T) {
	for i := 0; i < 64; i++ {
		sc := NewSpanContext()
		if !sc.Valid() {
			t.Fatalf("NewSpanContext minted invalid context %+v", sc)
		}
		hdr := sc.Traceparent()
		got, ok := ParseTraceparent(hdr)
		if !ok || got != sc {
			t.Fatalf("round trip %q: got %+v ok=%v, want %+v", hdr, got, ok, sc)
		}
	}

	sc := NewSpanContext()
	child := sc.Child()
	if child.Trace != sc.Trace {
		t.Fatalf("Child changed trace id: %s -> %s", sc.Trace, child.Trace)
	}
	if child.Span == sc.Span || child.Span.IsZero() {
		t.Fatalf("Child span id %s not fresh (parent %s)", child.Span, sc.Span)
	}

	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	cases := []struct {
		in string
		ok bool
	}{
		{valid, true},
		// Any flags byte and future versions with trailing fields parse.
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00", true},
		{"cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", true},
		{"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", true},
		// Malformed: wrong lengths, separators, hex, reserved version,
		// zero ids, trailing garbage without a separator.
		{"", false},
		{"00", false},
		{valid[:len(valid)-1], false},
		{"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false},
		{"00-00000000000000000000000000000000-00f067aa0ba902b7-01", false},
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", false},
		{"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01", false},
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902zz-01", false},
		{"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false},
		{"00-4bf92f3577b34da6a3ce929d0e0e4736_00f067aa0ba902b7-01", false},
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7_01", false},
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0x", false},
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", false},
		// The spec's hex is lowercase (so "FF" is the reserved version in
		// the wrong case), and version 00 has no trailing fields.
		{"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01", false},
		{"FF-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false},
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", false},
	}
	for _, tc := range cases {
		if _, ok := ParseTraceparent(tc.in); ok != tc.ok {
			t.Errorf("ParseTraceparent(%q) ok=%v, want %v", tc.in, ok, tc.ok)
		}
	}

	if got := (SpanContext{}).Traceparent(); got != "" {
		t.Fatalf("invalid context rendered %q, want empty", got)
	}
}

// TestSpanJSONRoundTrip pins the span wire format: hex ids, snake_case
// fields, omitted zero parent, and a lossless decode.
func TestSpanJSONRoundTrip(t *testing.T) {
	sc, _ := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	s := Span{
		Trace: sc.Trace, ID: sc.Span,
		Name: "queue.wait", Service: "electd",
		Start: 1700000000000000, Dur: 1500,
		Attrs: map[string]string{"job": "jabc", "kind": "chunk"},
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","span_id":"00f067aa0ba902b7",` +
		`"name":"queue.wait","service":"electd","start_us":1700000000000000,"dur_us":1500,` +
		`"attrs":{"job":"jabc","kind":"chunk"}}`
	if string(data) != want {
		t.Fatalf("span wire form drifted:\n got %s\nwant %s", data, want)
	}
	var back Span
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Trace != s.Trace || back.ID != s.ID || back.Name != s.Name ||
		back.Start != s.Start || back.Dur != s.Dur || back.Attrs["job"] != "jabc" {
		t.Fatalf("decode mismatch: %+v", back)
	}
	if strings.Contains(string(data), "parent_id") {
		t.Fatalf("zero parent should be omitted: %s", data)
	}
}

// TestSpanContextPropagation checks the context plumbing used between the
// HTTP middleware and the handlers.
func TestSpanContextPropagation(t *testing.T) {
	if got := SpanFromContext(t.Context()); got.Valid() {
		t.Fatalf("empty context yielded %+v", got)
	}
	sc := NewSpanContext()
	ctx := ContextWithSpan(t.Context(), sc)
	if got := SpanFromContext(ctx); got != sc {
		t.Fatalf("got %+v, want %+v", got, sc)
	}
	// The child of an invalid context is a fresh root: valid, and a new
	// trace each time.
	a, b := SpanContext{}.Child(), SpanContext{}.Child()
	if !a.Valid() || !b.Valid() {
		t.Fatalf("Child of the zero context is invalid: %+v, %+v", a, b)
	}
	if a.Trace == b.Trace {
		t.Fatalf("two roots minted from the zero context share trace %s", a.Trace)
	}
}

// FuzzParseTraceparent holds the parser of an untrusted header to its
// contract: it never panics; an accepted header is W3C-shaped (lowercase,
// not the reserved version ff in any case, nothing after version 00's
// flags) and yields a valid context whose Traceparent repeats the input's
// trace and span ids byte for byte and parses back to the same context.
// The seed corpus lives in testdata/fuzz/FuzzParseTraceparent.
func FuzzParseTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		sc, ok := ParseTraceparent(s)
		if !ok {
			return
		}
		if !sc.Valid() {
			t.Fatalf("accepted %q as invalid context %+v", s, sc)
		}
		head := s[:traceparentLen]
		if v := strings.ToLower(head[:2]); v == "ff" || v == "00" && len(s) != traceparentLen ||
			strings.ToLower(head) != head {
			t.Fatalf("accepted %q, which W3C Trace Context rejects", s)
		}
		hdr := sc.Traceparent()
		if hdr[3:52] != s[3:52] {
			t.Fatalf("Traceparent() = %q does not repeat the ids of %q", hdr, s)
		}
		if back, ok := ParseTraceparent(hdr); !ok || back != sc {
			t.Fatalf("re-parse of %q: %+v ok=%v, want %+v", hdr, back, ok, sc)
		}
	})
}
