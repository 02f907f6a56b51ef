package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Gauges are read from their callback at scrape time.
	r := NewRegistry()
	depth := 10
	r.GaugeFunc("g", "h.", func() float64 { return float64(depth) })
	depth -= 3
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\ng 7\n") {
		t.Fatalf("gauge exposition = %q, want g 7", b.String())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 10} {
		h.Observe(v)
	}
	// le semantics are inclusive: 1 lands in the le="1" bucket, 2 in le="2".
	want := []int64{2, 2, 1, 1} // (..1], (1..2], (2..5], (5..+Inf)
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if math.Abs(h.Sum()-18) > 1e-9 {
		t.Errorf("sum = %v, want 18", h.Sum())
	}
}

// TestHistogramIgnoresInvalid pins the Observe guard: NaN would poison the
// sum (and with it the golden exposition) and negative values would skew it
// below the bucket counts, so both are dropped without touching any state.
func TestHistogramIgnoresInvalid(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(math.NaN())
	h.Observe(-1)
	h.Observe(math.Inf(-1))
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("invalid observations recorded: count=%d sum=%v", h.Count(), h.Sum())
	}
	for i := range h.counts {
		if got := h.counts[i].Load(); got != 0 {
			t.Fatalf("bucket %d = %d after invalid observations", i, got)
		}
	}
	// Valid observations still land, and zero is valid.
	h.Observe(0)
	h.Observe(1.5)
	if h.Count() != 2 || math.Abs(h.Sum()-1.5) > 1e-9 {
		t.Fatalf("valid observations after guard: count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	// 10 observations in (1, 2]: the distribution is "uniform inside the
	// bucket" by the interpolation model, so p50 is the bucket midpoint.
	for i := 0; i < 10; i++ {
		h.Observe(1.5)
	}
	if got := h.Quantile(0.5); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("p50 = %v, want 1.5", got)
	}
	if got := h.Quantile(1); math.Abs(got-2) > 1e-9 {
		t.Errorf("p100 = %v, want 2 (bucket upper bound)", got)
	}
	// Observations beyond the last finite bound clamp to it.
	h2 := NewHistogram([]float64{1})
	h2.Observe(100)
	if got := h2.Quantile(0.99); got != 1 {
		t.Errorf("overflow quantile = %v, want 1", got)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	// Zero observations: every quantile is 0, including the extremes.
	h := NewHistogram([]float64{1, 2, 4})
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty q%v = %v, want 0", q, got)
		}
	}

	// Single-bucket histogram: everything interpolates inside [0, bound].
	one := NewHistogram([]float64{10})
	for i := 0; i < 4; i++ {
		one.Observe(5)
	}
	if got := one.Quantile(0.5); math.Abs(got-5) > 1e-9 {
		t.Errorf("single-bucket p50 = %v, want 5", got)
	}
	if got := one.Quantile(1); math.Abs(got-10) > 1e-9 {
		t.Errorf("single-bucket p100 = %v, want 10", got)
	}

	// Out-of-range q clamps rather than panicking or extrapolating.
	if got := one.Quantile(-3); got != one.Quantile(0) {
		t.Errorf("q=-3 = %v, want the q=0 answer %v", got, one.Quantile(0))
	}
	if got := one.Quantile(7); got != one.Quantile(1) {
		t.Errorf("q=7 = %v, want the q=1 answer %v", got, one.Quantile(1))
	}

	// Every observation in the overflow bucket: all quantiles clamp to the
	// last finite bound — the histogram cannot invent an upper edge.
	over := NewHistogram([]float64{1, 2, 4})
	for i := 0; i < 10; i++ {
		over.Observe(1e6)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := over.Quantile(q); got != 4 {
			t.Errorf("all-overflow q%v = %v, want 4", q, got)
		}
	}
}

func TestHistogramCountLE(t *testing.T) {
	h := NewHistogram([]float64{0.1, 0.5, 1})
	for _, v := range []float64{0.05, 0.3, 0.4, 0.9, 5} {
		h.Observe(v)
	}
	if got := h.CountLE(0.5); got != 3 {
		t.Fatalf("CountLE(0.5) = %d, want 3", got)
	}
	if got := h.CountLE(1); got != 4 {
		t.Fatalf("CountLE(1) = %d, want 4", got)
	}
	// A bound below every bucket counts nothing; the overflow observation is
	// only reachable through Count().
	if got := h.CountLE(0.01); got != 0 {
		t.Fatalf("CountLE(0.01) = %d, want 0", got)
	}
	if h.Count()-h.CountLE(1) != 1 {
		t.Fatalf("overflow count = %d, want 1", h.Count()-h.CountLE(1))
	}
}

func TestVecEach(t *testing.T) {
	reg := NewRegistry()
	cv := reg.CounterVec("req_total", "", "route", "code")
	cv.With("a", "200").Add(3)
	cv.With("b", "500").Add(2)
	var total int64
	var errs int64
	cv.Each(func(labels []string, c *Counter) {
		total += c.Value()
		if labels[1] == "500" {
			errs += c.Value()
		}
	})
	if total != 5 || errs != 2 {
		t.Fatalf("CounterVec.Each saw total=%d errs=%d, want 5/2", total, errs)
	}

	hv := reg.HistogramVec("lat", "", []float64{1}, "route")
	hv.With("a").Observe(0.5)
	hv.With("b").Observe(2)
	var n int64
	hv.Each(func(labels []string, h *Histogram) { n += h.Count() })
	if n != 2 {
		t.Fatalf("HistogramVec.Each saw %d observations, want 2", n)
	}
}

func TestHistogramQuantileSpread(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30, 40})
	// 40 observations, 10 per bucket: p25 at ~10, p75 at ~30.
	for b := 0; b < 4; b++ {
		for i := 0; i < 10; i++ {
			h.Observe(float64(b*10) + 5)
		}
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.25, 10}, {0.5, 20}, {0.75, 30}, {0.99, 39.6},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("q%v = %v, want %v", tc.q, got, tc.want)
		}
	}
}

// TestWritePrometheusGolden pins the exposition format: HELP/TYPE headers,
// sorted families, sorted label sets, cumulative le buckets, _sum/_count.
// This is the byte contract GET /metrics serves and the CI obs-smoke
// job greps.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	reqs := r.CounterVec("requests_total", "Requests by route.", "route", "code")
	reqs.With("/v1/run", "200").Add(3)
	reqs.With("/healthz", "200").Inc()
	r.GaugeFunc("queue_depth", "Jobs waiting.", func() float64 { return 2 })
	h := r.HistogramVec("latency_seconds", "Request latency.", []float64{0.1, 1}).With()
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.GaugeFunc("uptime_seconds", "Uptime.", func() float64 { return 1.5 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP latency_seconds Request latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.1"} 1
latency_seconds_bucket{le="1"} 2
latency_seconds_bucket{le="+Inf"} 3
latency_seconds_sum 5.55
latency_seconds_count 3
# HELP queue_depth Jobs waiting.
# TYPE queue_depth gauge
queue_depth 2
# HELP requests_total Requests by route.
# TYPE requests_total counter
requests_total{route="/healthz",code="200"} 1
requests_total{route="/v1/run",code="200"} 3
# HELP uptime_seconds Uptime.
# TYPE uptime_seconds gauge
uptime_seconds 1.5
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("m", "h.", "k").With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `m{k="a\"b\\c\nd"} 1`) {
		t.Errorf("escaping wrong:\n%s", b.String())
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.CounterVec("c", "h.").With()
	b := r.CounterVec("c", "h.").With()
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering at a different kind did not panic")
		}
	}()
	r.GaugeFunc("c", "h.", func() float64 { return 0 })
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("x_total", "X.").With().Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Errorf("body missing counter:\n%s", rec.Body.String())
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines — series
// creation, observation and scraping all racing — so `go test -race` proves
// the locking. Totals are asserted afterwards: every increment must land.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("hits_total", "Hits.", "worker")
	hist := r.HistogramVec("lat_seconds", "Latency.", []float64{0.01, 0.1, 1}, "worker")
	const (
		goroutines = 8
		perG       = 2000
	)
	workers := []string{"w0", "w1", "w2"}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				w := workers[(g+i)%len(workers)]
				vec.With(w).Inc()
				hist.With(w).Observe(float64(i%100) / 100)
				if i%500 == 0 {
					var b strings.Builder
					_ = r.WritePrometheus(&b) // scrape racing writes
				}
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, w := range workers {
		total += vec.With(w).Value()
	}
	if want := int64(goroutines * perG); total != want {
		t.Fatalf("lost increments: %d, want %d", total, want)
	}
	var histTotal int64
	for _, w := range workers {
		histTotal += hist.With(w).Count()
	}
	if want := int64(goroutines * perG); histTotal != want {
		t.Fatalf("lost observations: %d, want %d", histTotal, want)
	}
}
