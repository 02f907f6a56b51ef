package service

import (
	"net/http"
	"runtime"
	"strconv"
	"time"

	"cliquelect/internal/jobs"
	"cliquelect/internal/obs"
)

// Version identifies the service build on /healthz and in the
// electd_build_info metric. Bump it when the API surface changes.
const Version = "0.9.0"

// metrics is the daemon's instrumentation: one obs.Registry populated by the
// request middleware, the jobs.Config.Observe hook and a handful of
// GaugeFuncs sampled at scrape time. GET /metrics serves it in Prometheus
// text format.
type metrics struct {
	reg *obs.Registry

	requests *obs.CounterVec // route, method, code
	latency  *obs.HistogramVec
	jobsDone *obs.CounterVec // kind, state
	jobWait  *obs.HistogramVec
	jobExec  *obs.HistogramVec
	slo      *obs.SLOTracker
}

// sloSlowObjective is the latency objective feeding the SLO tracker:
// requests slower than this count against the error budget alongside 5xx
// answers. It is an exact obs.DefBuckets bound, so the CDF read
// (Histogram.CountLE) is exact, not interpolated.
const sloSlowObjective = 0.5

// jobBuckets spans queue waits and executions from sub-millisecond single
// runs to multi-minute sweeps.
var jobBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60, 300}

func newMetrics(s *Server) *metrics {
	r := obs.NewRegistry()
	m := &metrics{
		reg: r,
		requests: r.CounterVec("electd_requests_total",
			"API requests by route, method and status code.",
			"route", "method", "code"),
		latency: r.HistogramVec("electd_request_duration_seconds",
			"API request latency by route.", nil, "route"),
		jobsDone: r.CounterVec("electd_jobs_total",
			"Jobs reaching a terminal state, by kind and state.",
			"kind", "state"),
		jobWait: r.HistogramVec("electd_job_wait_seconds",
			"Queue wait from submission to execution, by job kind.",
			jobBuckets, "kind"),
		jobExec: r.HistogramVec("electd_job_exec_seconds",
			"Job execution time, by job kind.", jobBuckets, "kind"),
	}
	r.GaugeFunc("electd_queue_depth",
		"Jobs accepted but not yet executing.",
		func() float64 { return float64(s.mgr.QueueDepth()) })
	r.GaugeFunc("electd_jobs_active",
		"Jobs currently executing.",
		func() float64 { return float64(s.mgr.Counts()[jobs.Running]) })
	r.GaugeFunc("electd_uptime_seconds",
		"Seconds since the daemon started.",
		func() float64 { return time.Since(s.start).Seconds() })
	r.CounterVec("electd_build_info",
		"Constant 1, labeled with the service version.", "version").
		With(Version).Inc()
	// Go runtime health, sampled at scrape time. ReadMemStats briefly
	// stops the world, but only scrapes pay for it.
	r.GaugeFunc("go_goroutines",
		"Live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("go_heap_alloc_bytes",
		"Bytes of allocated heap objects.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	r.CounterFunc("go_gc_total",
		"Completed garbage-collection cycles.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.NumGC)
		})
	r.GaugeFunc("process_uptime_seconds",
		"Seconds since the daemon process started.",
		func() float64 { return time.Since(s.start).Seconds() })
	r.GaugeFunc("process_rss_bytes",
		"Resident set size of the daemon process (0 where unavailable).",
		func() float64 { return float64(obs.ProcessRSSBytes()) })
	// SLO burn rate over the request metrics this registry already holds: a
	// request is "bad" when it answered 5xx or ran past the latency
	// objective. The tracker is passive — only scrapes and fleetz probes
	// advance its window.
	m.slo = obs.NewSLOTracker(func() obs.SLOSample {
		var smp obs.SLOSample
		m.requests.Each(func(labels []string, c *obs.Counter) {
			v := c.Value()
			smp.Requests += v
			if code, err := strconv.Atoi(labels[2]); err == nil && code >= 500 {
				smp.Errors += v
			}
		})
		m.latency.Each(func(_ []string, h *obs.Histogram) {
			smp.Slow += h.Count() - h.CountLE(sloSlowObjective)
		})
		return smp
	})
	r.GaugeFunc("electd_slo_burn_rate",
		"Error-budget burn rate over the rolling SLO window (1 = on budget).",
		func() float64 { return m.slo.Status().BurnRate })
	r.GaugeFunc("electd_slo_bad_ratio",
		"Fraction of windowed requests that were 5xx or over the latency objective.",
		func() float64 { return m.slo.Status().BadRatio })
	r.GaugeFunc("electd_slo_status",
		"SLO verdict: 0 healthy, 1 degraded, 2 critical.",
		func() float64 { return float64(obs.VerdictRank(m.slo.Status().Verdict)) })
	if s.cfg.Cache != nil {
		cache := s.cfg.Cache
		r.CounterFunc("electd_cache_hits_total",
			"Result-cache memory hits.",
			func() float64 { return float64(cache.Stats().Hits) })
		r.CounterFunc("electd_cache_disk_hits_total",
			"Result-cache disk hits.",
			func() float64 { return float64(cache.Stats().DiskHits) })
		r.CounterFunc("electd_cache_misses_total",
			"Result-cache misses.",
			func() float64 { return float64(cache.Stats().Misses) })
		r.CounterFunc("electd_cache_puts_total",
			"Result-cache stores.",
			func() float64 { return float64(cache.Stats().Puts) })
		r.CounterFunc("electd_cache_evictions_total",
			"Result-cache evictions.",
			func() float64 { return float64(cache.Stats().Evictions) })
		r.GaugeFunc("electd_cache_entries",
			"Result-cache resident entries.",
			func() float64 { return float64(cache.Stats().Entries) })
	}
	if s.cfg.Control != nil {
		node := s.cfg.Control
		r.GaugeFunc("electd_control_epoch",
			"Highest election epoch this daemon has seen.",
			func() float64 { return float64(node.Status().Epoch) })
		r.GaugeFunc("electd_control_is_coordinator",
			"1 while this daemon holds the coordinator lease.",
			func() float64 {
				if node.IsCoordinator() {
					return 1
				}
				return 0
			})
		r.CounterFunc("electd_control_elections_total",
			"Campaigns this daemon won.",
			func() float64 { return float64(node.Status().Elections) })
		r.CounterFunc("electd_control_grants_total",
			"Fresh-epoch leases this daemon granted.",
			func() float64 { return float64(node.Status().Grants) })
		r.CounterFunc("electd_control_renewals_total",
			"Lease renewals this daemon granted.",
			func() float64 { return float64(node.Status().Renewals) })
		r.CounterFunc("electd_control_rejects_total",
			"Lease requests this daemon refused.",
			func() float64 { return float64(node.Status().Rejects) })
		r.CounterFunc("electd_control_stepdowns_total",
			"Leaderships this daemon lost or let expire.",
			func() float64 { return float64(node.Status().Stepdowns) })
		r.CounterFunc("electd_control_fence_rejects_total",
			"Chunk dispatches refused for carrying a stale fencing token.",
			func() float64 { return float64(node.Status().FenceRejects) })
	}
	return m
}

// statusWriter captures the response status for the request log and metrics.
// It forwards Flush so SSE streaming (GET /v1/jobs/{id}) keeps working
// behind the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
