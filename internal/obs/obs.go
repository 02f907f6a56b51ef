// Package obs is the dependency-free observability core of the serving
// stack: atomic counters, scrape-time gauges, fixed-bucket latency
// histograms with quantile extraction, a labeled registry that renders the Prometheus
// text exposition format (version 0.0.4), and the distributed
// request-tracing layer (SpanContext, W3C traceparent propagation,
// SpanCollector, Chrome trace-event export — see span.go and
// tracecollect.go). electd mounts a registry on GET /metrics and a span
// collector on GET /v1/traces; internal/distrib and elect/client feed
// their own counters into cmd/sweep's fleet summary.
//
// Naming note: request tracing here is unrelated to internal/trace, which
// records the communication graph of a clique execution for the paper's
// lower-bound proofs. See the package doc there.
//
// The package deliberately sits at the substrate layer (stdlib only, no
// imports of ours) so every layer — engines included — may depend on it.
// Engine instrumentation (RoundTrace) is strictly observational: it consumes
// no randomness and, when disabled, costs a nil check per event, so the
// deterministic engines' RNG streams, fingerprints and allocation budgets
// are untouched (see ARCHITECTURE.md, "Observability layer").
//
// Exposition output is deterministic — families sorted by name, series
// sorted by label signature — so the format itself is golden-testable.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; all methods are safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the Prometheus contract to hold).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// DefBuckets are the default latency histogram bounds in seconds, spanning
// a cached-run replay (~100µs) to a million-node sweep chunk (~10s).
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// atomicFloat accumulates a float64 via CAS on its bit pattern, the
// standard lock-free float accumulator (histogram sums).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) value() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram counts observations into fixed buckets with inclusive upper
// bounds (Prometheus "le" semantics) plus an implicit +Inf overflow bucket.
// All methods are safe for concurrent use; a scrape racing Observe may see
// a sum slightly ahead of the bucket counts, which Prometheus tolerates.
type Histogram struct {
	bounds []float64 // strictly increasing finite upper bounds
	counts []atomic.Int64
	total  atomic.Int64
	sum    atomicFloat
}

// NewHistogram builds a histogram over the given upper bounds, which must
// be strictly increasing; nil means DefBuckets. The registry calls this —
// construct directly only in tests.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not increasing at %v", bounds[i]))
		}
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value. NaN and negative observations are dropped:
// either would silently corrupt the sum (NaN poisons it outright, negatives
// skew it below the bucket counts) and with it the golden exposition, and
// neither is a meaningful latency.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || v < 0 {
		return
	}
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.total.Add(1)
	h.sum.add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.value() }

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// inside the bucket holding the target rank — the same estimate a
// Prometheus histogram_quantile() yields. Observations beyond the largest
// finite bound are reported as that bound; an empty histogram reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	q = math.Max(0, math.Min(1, q))
	rank := q * float64(total)
	cum, lower := 0.0, 0.0
	for i, b := range h.bounds {
		c := float64(h.counts[i].Load())
		if c > 0 && cum+c >= rank {
			frac := (rank - cum) / c
			if frac < 0 {
				frac = 0
			}
			return lower + frac*(b-lower)
		}
		cum += c
		lower = b
	}
	if len(h.bounds) > 0 {
		return h.bounds[len(h.bounds)-1]
	}
	return 0
}

// CountLE returns the number of observations in buckets whose upper bound
// is <= bound — a point read of the histogram's CDF at a bucket boundary.
// The SLO tracker uses it to count requests inside a latency objective
// (pick an objective that IS a bucket bound, or the nearest lower bound
// answers).
func (h *Histogram) CountLE(bound float64) int64 {
	var cum int64
	for i, b := range h.bounds {
		if b > bound {
			break
		}
		cum += h.counts[i].Load()
	}
	return cum
}

// metricKind discriminates the exposition TYPE of a family.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	}
	return "histogram"
}

// series is one labeled instance of a family.
type series struct {
	labels []string
	c      *Counter
	h      *Histogram
}

// family is one named metric and all its label instances.
type family struct {
	name, help string
	kind       metricKind
	keys       []string
	buckets    []float64      // histograms only
	fn         func() float64 // callback families: value read at scrape time

	mu     sync.Mutex
	series map[string]*series
}

// sigSep joins label values into a series signature; 0x00 cannot appear in
// a sane label value, and the signature sort order matches the rendered
// label order because values map positionally onto the fixed key list.
const sigSep = "\x00"

func (f *family) with(values []string) *series {
	if len(values) != len(f.keys) {
		panic(fmt.Sprintf("obs: %s takes %d label values, got %d", f.name, len(f.keys), len(values)))
	}
	sig := strings.Join(values, sigSep)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[sig]
	if !ok {
		s = &series{labels: append([]string(nil), values...)}
		switch f.kind {
		case kindCounter:
			s.c = &Counter{}
		case kindHistogram:
			s.h = NewHistogram(f.buckets)
		}
		f.series[sig] = s
	}
	return s
}

// Registry is a set of named metric families. The zero value is not usable;
// construct with NewRegistry. All methods are safe for concurrent use.
// Registering the same name twice returns the existing family (the kind and
// label keys must match, or the second registration panics — a programming
// error, like redeclaring a variable at a different type).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind metricKind, keys []string, buckets []float64, fn func() float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.keys) != len(keys) {
			panic(fmt.Sprintf("obs: %s re-registered as a different metric", name))
		}
		for i := range keys {
			if f.keys[i] != keys[i] {
				panic(fmt.Sprintf("obs: %s re-registered with different label keys", name))
			}
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		keys:    append([]string(nil), keys...),
		buckets: buckets,
		fn:      fn,
		series:  make(map[string]*series),
	}
	r.families[name] = f
	return f
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for mirroring counters owned elsewhere (e.g. the result cache's
// hit/miss totals) without double accounting.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.family(name, help, kindCounter, nil, nil, fn)
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time
// (queue depths, uptime).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.family(name, help, kindGauge, nil, nil, fn)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, keys ...string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, keys, nil, nil)}
}

// With returns the counter for one label-value combination, creating it on
// first use. The number of values must match the declared keys.
func (v *CounterVec) With(values ...string) *Counter { return v.f.with(values).c }

// Each calls fn for every series of the family in sorted label-signature
// order (the exposition order), outside the family lock. The fleetz
// federation walks the request counters with it.
func (v *CounterVec) Each(fn func(labels []string, c *Counter)) {
	for _, s := range v.f.snapshot() {
		fn(s.labels, s.c)
	}
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a labeled histogram family; nil buckets
// means DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, keys ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, kindHistogram, keys, buckets, nil)}
}

// With returns the histogram for one label-value combination.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.with(values).h }

// Each calls fn for every series of the family in sorted label-signature
// order, outside the family lock.
func (v *HistogramVec) Each(fn func(labels []string, h *Histogram)) {
	for _, s := range v.f.snapshot() {
		fn(s.labels, s.h)
	}
}

// snapshot copies the family's series in sorted signature order, for
// iteration outside the lock.
func (f *family) snapshot() []*series {
	f.mu.Lock()
	sigs := make([]string, 0, len(f.series))
	for sig := range f.series {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	out := make([]*series, len(sigs))
	for i, sig := range sigs {
		out[i] = f.series[sig]
	}
	f.mu.Unlock()
	return out
}

// WritePrometheus renders every family in the text exposition format
// (version 0.0.4). Output is deterministic: families sorted by name, series
// sorted by label signature.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	fams := make([]*family, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	if f.fn != nil {
		fmt.Fprintf(b, "%s %s\n", f.name, formatFloat(f.fn()))
		return
	}
	for _, s := range f.snapshot() {
		switch f.kind {
		case kindCounter:
			fmt.Fprintf(b, "%s%s %d\n", f.name, renderLabels(f.keys, s.labels, "", ""), s.c.Value())
		case kindHistogram:
			h := s.h
			var cum int64
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
					renderLabels(f.keys, s.labels, "le", formatFloat(bound)), cum)
			}
			cum += h.counts[len(h.bounds)].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
				renderLabels(f.keys, s.labels, "le", "+Inf"), cum)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name,
				renderLabels(f.keys, s.labels, "", ""), formatFloat(h.Sum()))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name,
				renderLabels(f.keys, s.labels, "", ""), h.Count())
		}
	}
}

// renderLabels renders {k1="v1",k2="v2"}, optionally with one extra pair
// appended (the histogram "le" bound); no labels renders as the empty
// string.
func renderLabels(keys, values []string, extraKey, extraValue string) string {
	if len(keys) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes the three characters the exposition format requires
// escaping inside label values.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// formatFloat renders a float the way Prometheus clients do: shortest
// round-trippable decimal.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry in the text exposition format — the body of
// electd's GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
