package obs

// SLO burn-rate tracking: a rolling window of cumulative request/bad-event
// samples over the metrics the registry already holds, scored into a
// three-level health verdict. The tracker is deliberately passive — it owns
// no goroutine or timer; each Status call (a /metrics scrape or a
// /v1/fleetz probe) advances the sample ring lazily, so an idle daemon
// pays nothing.

import (
	"sync"
	"time"
)

// Health verdicts, ordered from best to worst.
const (
	HealthHealthy  = "healthy"
	HealthDegraded = "degraded"
	HealthCritical = "critical"
)

// VerdictRank orders verdicts for worst-of merging: healthy < degraded <
// critical; unknown strings rank worst of all (a node that cannot report
// its health is not healthy).
func VerdictRank(v string) int {
	switch v {
	case HealthHealthy:
		return 0
	case HealthDegraded:
		return 1
	case HealthCritical:
		return 2
	}
	return 3
}

// WorseVerdict returns the worse of two verdicts — the fleet verdict is the
// worst node verdict.
func WorseVerdict(a, b string) string {
	if VerdictRank(b) > VerdictRank(a) {
		return b
	}
	return a
}

// SLOSample is one cumulative reading of the tracked totals: every request
// served, the subset answered 5xx, and the subset slower than the latency
// objective. The source closure reads them from the live registry
// (CounterVec.Each / Histogram.CountLE), so the tracker double-counts
// nothing.
type SLOSample struct {
	Requests int64
	Errors   int64
	Slow     int64
}

// Burn-rate thresholds: a burn rate is the bad-event ratio over the window
// divided by the error budget, so burn 1.0 consumes the budget exactly as
// fast as allowed. Sustained burn >= SLOBurnDegraded is degraded; burn >=
// SLOBurnCritical (the classic fast-burn page threshold) is critical.
const (
	SLOBurnDegraded = 1.0
	SLOBurnCritical = 10.0
)

// SLOStatus is one verdict with its evidence, embedded per node in
// /v1/fleetz and exported as the electd_slo_* metrics.
type SLOStatus struct {
	// Verdict is healthy, degraded or critical.
	Verdict string `json:"verdict"`
	// BurnRate is BadRatio divided by the error budget (0 on zero traffic).
	BurnRate float64 `json:"burn_rate"`
	// BadRatio is the fraction of windowed requests that were errors or
	// slower than the objective.
	BadRatio float64 `json:"bad_ratio"`
	// Requests is the number of requests observed inside the window.
	Requests int64 `json:"requests"`
	// WindowSeconds is the actual span of the window the ratio covers (less
	// than DefaultSLOWindow early in a daemon's life).
	WindowSeconds float64 `json:"window_seconds"`
}

// SLOTracker scores a daemon's health from a rolling window of samples.
// All methods are safe for concurrent use; the zero value is not usable,
// construct with NewSLOTracker.
type SLOTracker struct {
	source func() SLOSample
	now    func() time.Time

	mu     sync.Mutex
	points []sloPoint // oldest first, all within window of the newest
}

type sloPoint struct {
	t time.Time
	s SLOSample
}

// The SLO: up to 1% of requests may be bad (5xx or slower than the
// objective), judged over a 5-minute window sampled every 10 seconds.
const (
	DefaultSLOBudget = 0.01
	DefaultSLOWindow = 5 * time.Minute
	sloStep          = 10 * time.Second
)

// NewSLOTracker builds a tracker over source, which must return cumulative
// (never decreasing) totals.
func NewSLOTracker(source func() SLOSample) *SLOTracker {
	return &SLOTracker{source: source, now: time.Now}
}

// setClock pins the tracker's clock (tests).
func (t *SLOTracker) setClock(now func() time.Time) { t.now = now }

// Status samples the source, advances the window ring, and scores the
// verdict. Zero traffic in the window is healthy — an idle daemon is not a
// broken one.
func (t *SLOTracker) Status() SLOStatus {
	now := t.now()
	cur := sloPoint{t: now, s: t.source()}

	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.points); n == 0 || now.Sub(t.points[n-1].t) >= sloStep {
		t.points = append(t.points, cur)
	}
	// Drop points that have fallen out of the window, but always keep one
	// baseline: the delta is measured against the oldest retained point.
	for len(t.points) > 1 && now.Sub(t.points[1].t) >= DefaultSLOWindow {
		t.points = t.points[1:]
	}
	base := t.points[0]

	st := SLOStatus{
		Verdict:       HealthHealthy,
		WindowSeconds: now.Sub(base.t).Seconds(),
	}
	reqs := cur.s.Requests - base.s.Requests
	bad := (cur.s.Errors - base.s.Errors) + (cur.s.Slow - base.s.Slow)
	if reqs <= 0 || bad < 0 {
		return st
	}
	st.Requests = reqs
	st.BadRatio = float64(bad) / float64(reqs)
	st.BurnRate = st.BadRatio / DefaultSLOBudget
	switch {
	case st.BurnRate >= SLOBurnCritical:
		st.Verdict = HealthCritical
	case st.BurnRate >= SLOBurnDegraded:
		st.Verdict = HealthDegraded
	}
	return st
}
