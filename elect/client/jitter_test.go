package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cliquelect/internal/xrand"
)

func TestJitterDelayWithinWindow(t *testing.T) {
	rng := xrand.New(7)
	base := DefaultRetryBase
	lo := time.Duration(float64(base) * (1 - RetryJitter))
	hi := time.Duration(float64(base) * (1 + RetryJitter))
	distinct := map[time.Duration]bool{}
	for i := 0; i < 1000; i++ {
		d := jitterDelay(base, rng)
		if d < lo || d > hi {
			t.Fatalf("jittered delay %v outside [%v, %v]", d, lo, hi)
		}
		distinct[d] = true
	}
	if len(distinct) < 100 {
		t.Fatalf("jitter produced only %d distinct delays in 1000 draws", len(distinct))
	}
}

func TestJitterDelayNeverExceedsCap(t *testing.T) {
	rng := xrand.New(1)
	for i := 0; i < 1000; i++ {
		if d := jitterDelay(maxRetryBackoff, rng); d > maxRetryBackoff {
			t.Fatalf("jittered delay %v exceeds the %v cap", d, maxRetryBackoff)
		}
	}
}

func TestJitterSeedDeterministic(t *testing.T) {
	// The same seed replays the same delay sequence; different seeds differ.
	draw := func(seed uint64, k int) []time.Duration {
		rng := xrand.New(seed)
		out := make([]time.Duration, k)
		for i := range out {
			out[i] = jitterDelay(DefaultRetryBase, rng)
		}
		return out
	}
	a, b := draw(42, 16), draw(42, 16)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := draw(43, 16)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical delay sequences")
	}
}

// TestRetrySleepsAreJittered drives the real retry loop against an
// always-503 daemon and checks the observed inter-attempt gaps stay inside
// the jittered exponential schedule.
func TestRetrySleepsAreJittered(t *testing.T) {
	var stamps []time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		stamps = append(stamps, time.Now())
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	base := 20 * time.Millisecond
	c := New(srv.URL, WithRetry(3, base))
	c.jitterSeed = 5
	if _, err := c.Health(context.Background()); err == nil {
		t.Fatal("expected the retries to exhaust")
	}
	if len(stamps) != 3 {
		t.Fatalf("daemon saw %d attempts, want 3", len(stamps))
	}
	for i, nominal := range []time.Duration{base, 2 * base} {
		gap := stamps[i+1].Sub(stamps[i])
		lo := time.Duration(float64(nominal) * (1 - RetryJitter))
		// Generous upper slack: scheduling delay only ever lengthens a gap.
		hi := time.Duration(float64(nominal)*(1+RetryJitter)) + 250*time.Millisecond
		if gap < lo || gap > hi {
			t.Fatalf("gap %d = %v outside jitter window [%v, %v]", i, gap, lo, hi)
		}
	}
}
