package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"cliquelect/internal/obs"
)

// TestRetriesBecomeAttemptSpans pins the client side of the tracing
// contract: a request that retries twice records ONE client.request span
// and three sibling client.attempt children — numbered, tagged with their
// outcome and preceding backoff — and each try carries its own traceparent
// header (same trace, distinct span ids), so the server-side subtrees of a
// retried request stay distinguishable.
func TestRetriesBecomeAttemptSpans(t *testing.T) {
	var (
		mu      sync.Mutex
		parents []string
	)
	calls := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		parents = append(parents, r.Header.Get("traceparent"))
		calls++
		n := calls
		mu.Unlock()
		if n <= 2 {
			http.Error(w, `{"error":"transient"}`, http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(Health{OK: true})
	}))
	t.Cleanup(ts.Close)

	col := obs.NewSpanCollector(0)
	c := New(ts.URL, WithRetry(3, time.Millisecond), WithSpanCollector(col))
	if h, err := c.Health(context.Background()); err != nil || !h.OK {
		t.Fatalf("health after retries: %+v err=%v", h, err)
	}

	ids := col.TraceIDs(0)
	if len(ids) != 1 {
		t.Fatalf("collector holds %d traces, want the one request's", len(ids))
	}
	spans := col.Trace(ids[0])
	var reqSpan obs.Span
	var attempts []obs.Span
	for _, sp := range spans {
		switch sp.Name {
		case "client.request":
			reqSpan = sp
		case "client.attempt":
			attempts = append(attempts, sp)
		default:
			t.Errorf("unexpected span %q", sp.Name)
		}
	}
	if reqSpan.Name == "" {
		t.Fatalf("no client.request span in %d spans", len(spans))
	}
	if got := reqSpan.Attrs["attempts"]; got != "3" {
		t.Fatalf("request attempts attr = %q, want 3", got)
	}
	if len(attempts) != 3 {
		t.Fatalf("%d attempt spans, want 3", len(attempts))
	}
	wantOutcome := map[string]string{"1": "503", "2": "503", "3": "200"}
	for _, sp := range attempts {
		if sp.Parent != reqSpan.ID {
			t.Errorf("attempt %s parent %s, want request span %s", sp.Attrs["attempt"], sp.Parent, reqSpan.ID)
		}
		n := sp.Attrs["attempt"]
		if sp.Attrs["outcome"] != wantOutcome[n] {
			t.Errorf("attempt %s outcome %q, want %q", n, sp.Attrs["outcome"], wantOutcome[n])
		}
		// The first try slept for nothing; every retry names its backoff.
		if _, slept := sp.Attrs["backoff"]; slept == (n == "1") {
			t.Errorf("attempt %s backoff attr presence wrong: %v", n, sp.Attrs)
		}
	}

	// Each try announced itself under its own span id on the shared trace.
	mu.Lock()
	defer mu.Unlock()
	seen := map[obs.SpanID]bool{}
	for i, tp := range parents {
		sc, ok := obs.ParseTraceparent(tp)
		if !ok {
			t.Fatalf("try %d sent unparsable traceparent %q", i+1, tp)
		}
		if sc.Trace != reqSpan.Trace {
			t.Errorf("try %d on trace %s, want %s", i+1, sc.Trace, reqSpan.Trace)
		}
		if seen[sc.Span] {
			t.Errorf("try %d reused span id %s", i+1, sc.Span)
		}
		seen[sc.Span] = true
	}
}

// TestUntracedClientSendsNoTraceparent pins the disabled path: without a
// collector or a context span, the wire carries no tracing headers at all.
func TestUntracedClientSendsNoTraceparent(t *testing.T) {
	var header string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		header = r.Header.Get("traceparent")
		json.NewEncoder(w).Encode(Health{OK: true})
	}))
	t.Cleanup(ts.Close)
	c := New(ts.URL)
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if header != "" {
		t.Fatalf("untraced client sent traceparent %q", header)
	}
}
