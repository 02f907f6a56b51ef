// Package service implements the electd HTTP API over the jobs manager and
// the result cache; cmd/electd is a thin flag-parsing shell around it, and
// tests (plus examples/service) mount Handler on httptest servers.
//
// Routes:
//
//	POST /v1/run       — one election; waits by default, {"async":true} queues
//	POST /v1/batch     — a multi-size multi-seed sweep; same async contract
//	POST /v1/chunk     — a cell range of a batch grid, synchronous; the
//	                     worker-side call of distributed dispatch
//	GET  /v1/jobs      — list all jobs
//	GET  /v1/jobs/{id} — job status + result (none once a synchronous reply
//	                     took it); Accept: text/event-stream switches to SSE
//	                     progress streaming
//	DELETE /v1/jobs/{id} — cancel
//	GET  /v1/specs     — the protocol registry
//	GET  /healthz      — liveness + job/cache counters
//	GET  /metrics      — Prometheus text exposition (internal/obs registry)
//	GET  /v1/traces    — recent request traces, newest first (?since=/?limit=)
//	GET  /v1/traces/{id} — every recorded span of one trace
//	GET  /v1/events    — the daemon's event journal (?since=SEQ/?limit=N)
//	GET  /v1/events/stream — live journal tail over SSE
//	GET  /v1/fleetz    — merged fleet snapshot: every peer probed, rolled up
//
// Every request is traced: the middleware honors an incoming W3C
// traceparent header (minting a fresh trace otherwise), stamps the trace id
// on the X-Trace-Id response header and the structured request log, and
// records handler, queue-wait and job-execution spans in a bounded
// in-memory obs.SpanCollector. Chunk responses additionally carry their
// worker-side spans back to the coordinator (see handleChunk), which is how
// a fleet sweep assembles one merged trace. Tracing is observational only —
// no engine or scheduling decision reads it.
//
// The wire schema lives in cliquelect/elect/client (shared with the Go
// client); results ride the stable elect JSON codec.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"cliquelect/elect"
	"cliquelect/elect/client"
	"cliquelect/internal/control"
	"cliquelect/internal/distrib"
	"cliquelect/internal/jobs"
	"cliquelect/internal/obs"
	"cliquelect/internal/resultcache"
)

// Config assembles a Server.
type Config struct {
	// Workers and QueueDepth size the jobs manager (see jobs.Config).
	Workers    int
	QueueDepth int
	// BatchWorkers caps each batch job's sharded RunMany executor (see
	// jobs.Config.BatchWorkers); 0 leaves every job at GOMAXPROCS.
	BatchWorkers int
	// Cache, when non-nil, serves repeated deterministic runs from stored
	// bytes and reports its counters in /healthz.
	Cache *resultcache.Cache
	// Logf, when non-nil, receives one structured key=value line per API
	// request (method, route, status, duration, job id, trace id).
	Logf func(format string, args ...any)
	// TraceSpans caps the in-memory span collector behind /v1/traces; 0
	// means obs.DefaultSpanCapacity, negative disables tracing entirely
	// (no X-Trace-Id and no spans; the trace routes answer empty lists,
	// and each request pays one nil check).
	TraceSpans int
	// Instance names this daemon in span Service fields (e.g. its listen
	// address), so merged fleet traces tell workers apart. Empty means
	// plain "electd".
	Instance string
	// Control, when non-nil, is this daemon's control-plane node
	// (internal/control, built by cmd/electd from -peers): it serves
	// POST /v1/lease and GET /v1/coordinator, stamps role/epoch on
	// /healthz, fences /v1/chunk dispatches (409 on stale tokens, both at
	// submission and at execution start) and gates fleet batches on
	// coordinatorship. A coordinator dispatches fleet batches
	// (BatchRequest.Fleet) over the node's other peers, fenced by the
	// node's Token; without Control, or without another peer, fleet batches
	// are rejected.
	Control *control.Node
	// Events caps the daemon's event journal behind /v1/events; 0 means
	// obs.DefaultEventCapacity, negative disables journaling entirely (the
	// event routes then 404 and every Emit in the stack pays one nil
	// check). The journal keeps decisions: the control plane's elections,
	// leases and fence rejects, and the fleet's worker and chunk
	// scheduling. Jobs and cache evictions are not journaled (their facts
	// live in /metrics, the spans and /v1/jobs), so a daemon without
	// Control journals nothing.
	Events int
}

// limits bounds what one request may ask for: the largest network size of
// a run, batch or chunk, and the most cells a batch grid or a chunk's range
// holds. A request past either is answered 400 before anything of its size
// is allocated or queued. 65,536 nodes is the largest size the
// repository's experiments run, and no committed workload, test or script
// asks the daemon for 65,536 cells at once.
var limits = elect.Limits{MaxN: 1 << 16, MaxCells: 1 << 16}

// Server is the electd HTTP service.
type Server struct {
	cfg    Config
	fleet  *distrib.Fleet // fleet-batch dispatch; nil unless Control names other peers
	mgr    *jobs.Manager
	mux    *http.ServeMux
	met    *metrics
	spans  *obs.SpanCollector
	events *obs.EventLog
	svc    string
	start  time.Time
}

// New builds the service and starts its worker pool.
func New(cfg Config) *Server {
	s := &Server{
		cfg:   cfg,
		svc:   "electd",
		start: time.Now(),
	}
	if cfg.Instance != "" {
		s.svc = "electd:" + cfg.Instance
	}
	if cfg.TraceSpans >= 0 {
		s.spans = obs.NewSpanCollector(cfg.TraceSpans)
	}
	if cfg.Events >= 0 {
		node := cfg.Instance
		if node == "" {
			node = "electd"
		}
		s.events = obs.NewEventLog(cfg.Events, node)
	}
	s.met = newMetrics(s)
	var cache elect.Cache
	if cfg.Cache != nil {
		cache = cfg.Cache
	}
	var checkFence func(uint64) error
	if cfg.Control != nil {
		checkFence = cfg.Control.CheckFence
		// The dispatch fleet is the peer set minus self: a coordinator
		// shards fleet batches over the other daemons (falling back to local
		// execution when none survive), never through its own bounded
		// worker pool. New fails when no other peer is listed, and the
		// fleet then stays off.
		others := slices.DeleteFunc(cfg.Control.Peers(), func(p string) bool { return p == cfg.Control.Self() })
		if fleet, err := distrib.New(distrib.Config{Workers: others, Fence: cfg.Control.Token}); err == nil {
			fleet.SetEvents(s.events)
			s.fleet = fleet
		}
	}
	s.mgr = jobs.NewManager(jobs.Config{
		Workers:      cfg.Workers,
		QueueDepth:   cfg.QueueDepth,
		BatchWorkers: cfg.BatchWorkers,
		Cache:        cache,
		Observe:      s.observeJob,
		CheckFence:   checkFence,
	})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/chunk", s.handleChunk)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/specs", s.handleSpecs)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/traces/{id}", s.handleTrace)
	if s.events != nil {
		mux.HandleFunc("GET /v1/events", s.handleEvents)
		mux.HandleFunc("GET /v1/events/stream", s.handleEventsStream)
	}
	mux.HandleFunc("GET /v1/fleetz", s.handleFleetz)
	if cfg.Control != nil {
		mux.HandleFunc("POST /v1/lease", s.handleLease)
		mux.HandleFunc("GET /v1/coordinator", s.handleCoordinator)
	}
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.met.reg.Handler())
	s.mux = mux
	return s
}

// Metrics exposes the daemon's registry (cmd/electd's pprof mux and tests).
func (s *Server) Metrics() *obs.Registry { return s.met.reg }

// Spans exposes the daemon's span collector (nil when tracing is disabled).
func (s *Server) Spans() *obs.SpanCollector { return s.spans }

// Events exposes the daemon's event journal (nil when journaling is
// disabled) — cmd/electd wires it into the control node.
func (s *Server) Events() *obs.EventLog { return s.events }

// Handler returns the API handler: the route mux behind the observation
// middleware that feeds the request metrics, the structured request log and
// the span collector. The middleware is also the trace boundary: it extracts
// the caller's W3C traceparent (or mints a fresh trace), answers with
// X-Trace-Id, and hands the server span context to the handlers through the
// request context so job submissions can propagate it.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		began := time.Now()
		var parent, sc obs.SpanContext
		if s.spans != nil {
			parent, _ = obs.ParseTraceparent(r.Header.Get("traceparent"))
			sc = parent.Child()
			w.Header().Set("X-Trace-Id", sc.Trace.String())
			r = r.WithContext(obs.ContextWithSpan(r.Context(), sc))
		}
		rw := &statusWriter{ResponseWriter: w}
		s.mux.ServeHTTP(rw, r)
		// ServeMux stamps the matched pattern on the request itself, so the
		// route label ("POST /v1/run" → "/v1/run") is read after dispatch.
		route := r.Pattern
		if i := strings.IndexByte(route, ' '); i >= 0 {
			route = route[i+1:]
		}
		if route == "" {
			route = "unmatched"
		}
		dur := time.Since(began)
		code := rw.status
		if code == 0 {
			code = http.StatusOK
		}
		s.met.requests.With(route, r.Method, strconv.Itoa(code)).Inc()
		s.met.latency.With(route).Observe(dur.Seconds())
		if s.spans != nil {
			s.spans.Add(obs.NewSpan(sc, parent.Span, "http.request", s.svc, began, dur,
				map[string]string{
					"route": route, "method": r.Method, "status": strconv.Itoa(code),
				}))
		}
		if s.cfg.Logf != nil {
			line := fmt.Sprintf("method=%s route=%s path=%s status=%d dur=%s",
				r.Method, route, r.URL.Path, code, dur.Round(time.Microsecond))
			if id := rw.Header().Get("X-Job-Id"); id != "" {
				line += " job=" + id
			}
			if s.spans != nil {
				line += " trace=" + sc.Trace.String()
			}
			s.cfg.Logf("%s", line)
		}
	})
}

// Close drains the worker pool; queued jobs are canceled.
func (s *Server) Close() { s.mgr.Close() }

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req client.RunRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := limits.Admit([]int{req.N}); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spec, opts, err := req.Resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.mgr.SubmitRun(spec, opts, submitOpts(r, req.NoCache)...)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	w.Header().Set("X-Job-Id", job.ID)
	if req.Async {
		writeJSON(w, http.StatusAccepted, client.RunResponse{Job: status(job)})
		return
	}
	// The reply is the only reader of a synchronous job's result: whether
	// or not one is written, the job table keeps none of it.
	defer job.TakeResult()
	if !s.await(w, r, job) {
		return
	}
	st := status(job)
	if st.State != string(jobs.Done) {
		writeNotDone(w, st)
		return
	}
	writeJobReply(w, st, "result", job.TakeResult(), cacheHitTail(st.CacheHit))
}

// Envelope pieces around a job's status and its spliced result.
var (
	chunkHead = []byte(`{"results":`)
	spansKey  = []byte(`,"spans":`)
	tailEnd   = []byte("}\n")
	tailHit   = []byte(`,"cache_hit":true}` + "\n")
	tailMiss  = []byte(`,"cache_hit":false}` + "\n")

	openArray  = []byte("[")
	comma      = []byte(",")
	closeArray = []byte("]")
)

// cacheHitTail closes a run or job reply with its cache_hit field.
func cacheHitTail(hit bool) []byte {
	if hit {
		return tailHit
	}
	return tailMiss
}

// writeJobReply writes the 200 reply whose first field is the job status
// st, followed by the field key holding result when result is not nil,
// then tail.
func writeJobReply(w http.ResponseWriter, st client.JobStatus, key string, result, tail []byte) {
	job, err := json.Marshal(st)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	head := make([]byte, 0, len(job)+len(key)+12)
	head = append(append(head, `{"job":`...), job...)
	if result != nil {
		head = append(append(append(head, `,"`...), key...), `":`...)
	}
	writeSpliced(w, head, result, tail)
}

// writeSpliced writes the 200 JSON reply head + result + tail with its
// Content-Length. It is the one writer of every reply that carries a
// result: result is a job's result bytes (jobs.Job.Result), spliced in
// unchanged, so the reply is byte for byte what writeJSON writes for the
// decoded response. encoding/json copies a value's MarshalJSON output
// compacted with HTML escaped, and that is the form elect's encoders and
// the canonical cache bytes already have. A chunk passes its cells
// (jobs.Job.TakeCells) instead of result, and the array they form is
// written in place of result: `[`, the cells separated by `,`, and `]`.
func writeSpliced(w http.ResponseWriter, head, result, tail []byte, cells ...[]byte) {
	size := len(head) + len(result) + len(tail)
	if cells != nil {
		size += max(len(cells)+1, 2) // brackets and commas
		for _, c := range cells {
			size += len(c)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(size))
	w.WriteHeader(http.StatusOK)
	// As in writeJSON, a failed write means the caller is gone: there is no
	// one left to report it to.
	w.Write(head)
	w.Write(result)
	if cells != nil {
		w.Write(openArray)
		for i, c := range cells {
			if i > 0 {
				w.Write(comma)
			}
			w.Write(c)
		}
		w.Write(closeArray)
	}
	w.Write(tail)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req client.BatchRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := limits.Admit(req.Ns, len(req.Ns), max(len(req.Seeds), req.SeedCount), len(req.Topos)); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spec, batch, err := req.Resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Fleet {
		if s.fleet == nil {
			writeError(w, http.StatusBadRequest,
				errors.New("fleet batches need a fleet-managed daemon (electd -peers)"))
			return
		}
		if !s.cfg.Control.IsCoordinator() {
			st := s.cfg.Control.Status()
			writeJSON(w, http.StatusConflict, client.ErrorResponse{
				Error:       "not the coordinator",
				Epoch:       st.Epoch,
				Coordinator: st.Coordinator,
			})
			return
		}
		batch.Remote = s.fleet.Runner(req.Options)
	}
	job, err := s.mgr.SubmitBatch(spec, batch, submitOpts(r, req.NoCache)...)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	w.Header().Set("X-Job-Id", job.ID)
	if req.Async {
		writeJSON(w, http.StatusAccepted, client.BatchResponse{Job: status(job)})
		return
	}
	defer job.TakeResult() // as in handleRun
	if !s.await(w, r, job) {
		return
	}
	st := status(job)
	if st.State != string(jobs.Done) {
		writeNotDone(w, st)
		return
	}
	writeJobReply(w, st, "result", job.TakeResult(), tailEnd)
}

// handleChunk executes a cell range of a batch grid synchronously — the
// worker side of distributed dispatch. Chunks ride the normal job queue and
// worker pool, so they contend fairly with local jobs and show up in the
// /healthz load gauges.
func (s *Server) handleChunk(w http.ResponseWriter, r *http.Request) {
	var req client.ChunkRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// A chunk names its whole grid but runs only its range, so the range
	// is what the cell limit bounds.
	if err := limits.Admit(req.Ns, req.Count); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spec, batch, err := req.Resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	fence := req.Fence
	if fence == 0 {
		// Header fallback so proxies (and curl reproductions) can fence
		// without touching the body. A malformed header is a 400, not an
		// unfenced dispatch: silently degrading to token 0 would turn a
		// mangled fencing header into an always-accepted chunk.
		if v := r.Header.Get(client.FenceHeader); v != "" {
			f, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest,
					fmt.Errorf("malformed %s header %q: %w", client.FenceHeader, v, err))
				return
			}
			fence = f
		}
	}
	if s.cfg.Control != nil {
		// Fast pre-check before the chunk consumes a queue slot; jobs
		// re-checks at execution start to close the queued-while-deposed
		// window.
		if err := s.cfg.Control.CheckFence(fence); err != nil {
			writeFenceError(w, err)
			return
		}
	}
	sopts := submitOpts(r, req.NoCache)
	if fence > 0 {
		sopts = append(sopts, jobs.WithFence(fence))
	}
	job, err := s.mgr.SubmitChunk(spec, batch, req.Start, req.Count, sopts...)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	defer job.TakeCells() // as in handleRun
	w.Header().Set("X-Job-Id", job.ID)
	if !s.await(w, r, job) {
		return
	}
	if st := status(job); st.State != string(jobs.Done) {
		var stale *control.StaleTokenError
		if errors.As(job.Err(), &stale) {
			writeFenceError(w, stale)
			return
		}
		writeNotDone(w, st)
		return
	}
	// The reply is ChunkResponse{Results, Spans}: the spans, when traced,
	// ride in the tail after the spliced results.
	tail := tailEnd
	if sc := obs.SpanFromContext(r.Context()); sc.Valid() {
		spans, err := json.Marshal(s.chunkSpans(r, sc, job.Snapshot()))
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		tail = slices.Concat(spansKey, spans, tailEnd)
	}
	writeSpliced(w, chunkHead, nil, tail, job.TakeCells()...)
}

// chunkSpans builds the worker-side span set a chunk response carries back
// to the coordinator: a serve-side root under the same span id as this
// request's http.request span (so the coordinator's tree connects through
// it without waiting for the middleware) plus the chunk's queue-wait and
// execution spans. The queue/exec spans are also recorded locally; the
// serve span is not, because the middleware records the authoritative
// http.request span under that id after the handler returns.
func (s *Server) chunkSpans(r *http.Request, sc obs.SpanContext, snap jobs.Snapshot) []obs.Span {
	parent, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
	serve := obs.NewSpan(sc, parent.Span, "chunk.serve", s.svc,
		snap.Created, snap.Finished.Sub(snap.Created), map[string]string{"job": snap.ID})
	qw := queueWaitSpan(sc, s.svc, snap)
	ex := execSpan(sc, s.svc, snap)
	s.spans.Add(qw)
	s.spans.Add(ex)
	return append(make([]obs.Span, 0, 3), serve, qw, ex)
}

// writeNotDone answers a synchronous request whose job ended Failed or
// Canceled: 422 with the job's error, or "<kind> canceled" when there is
// none. A 200 would carry no result.
func writeNotDone(w http.ResponseWriter, st client.JobStatus) {
	msg := st.Error
	if msg == "" {
		msg = st.Kind + " " + st.State
	}
	writeError(w, http.StatusUnprocessableEntity, errors.New(msg))
}

// submitOpts assembles the submit options a handler forwards to the jobs
// manager: the cache bypass, and the request's span context as an opaque
// traceparent so observeJob can parent queue/exec spans correctly.
func submitOpts(r *http.Request, noCache bool) []jobs.SubmitOption {
	var sopts []jobs.SubmitOption
	if noCache {
		sopts = append(sopts, jobs.NoCache())
	}
	if sc := obs.SpanFromContext(r.Context()); sc.Valid() {
		sopts = append(sopts, jobs.WithTraceparent(sc.Traceparent()))
	}
	return sopts
}

// observeJob is the jobs.Config.Observe hook, called once per job state
// change. A terminal change feeds the job metrics. Traced run and batch jobs
// get a queue.wait span when they start and a job.exec span when they end —
// or, canceled while still queued, a queue.wait span covering their whole
// lifetime. Chunk jobs get no spans here: handleChunk rebuilds theirs after
// completion so the identical set can also ride back in the chunk response.
// Job changes are not journaled: /v1/events keeps decisions, and a job's
// facts already live in these metrics, its spans and /v1/jobs. It runs under
// the job lock, so it only touches the span collector and lock-free metric
// atomics (vector lookups allocate at most once per label set).
func (s *Server) observeJob(snap jobs.Snapshot) {
	switch snap.State {
	case jobs.Queued:
		return
	case jobs.Running:
	default:
		kind := string(snap.Kind)
		s.met.jobsDone.With(kind, string(snap.State)).Inc()
		wait := snap.Started.Sub(snap.Created)
		if snap.Started.IsZero() {
			wait = snap.Finished.Sub(snap.Created)
		}
		s.met.jobWait.With(kind).Observe(wait.Seconds())
		if !snap.Started.IsZero() {
			s.met.jobExec.With(kind).Observe(snap.Finished.Sub(snap.Started).Seconds())
		}
	}
	if snap.Kind == jobs.KindChunk {
		return
	}
	parent, ok := obs.ParseTraceparent(snap.Trace)
	if !ok {
		return
	}
	if snap.State == jobs.Running || snap.Started.IsZero() {
		s.spans.Add(queueWaitSpan(parent, s.svc, snap))
		return
	}
	s.spans.Add(execSpan(parent, s.svc, snap))
}

// queueWaitSpan covers submission to execution start — or to the terminal
// state for jobs canceled in the queue, whose Started stays zero.
func queueWaitSpan(parent obs.SpanContext, svc string, snap jobs.Snapshot) obs.Span {
	end := snap.Started
	if end.IsZero() {
		end = snap.Finished
	}
	return obs.NewSpan(parent.Child(), parent.Span, "queue.wait", svc,
		snap.Created, end.Sub(snap.Created),
		map[string]string{"job": snap.ID, "kind": string(snap.Kind)})
}

// execSpan covers a job's running phase.
func execSpan(parent obs.SpanContext, svc string, snap jobs.Snapshot) obs.Span {
	return obs.NewSpan(parent.Child(), parent.Span, "job.exec", svc,
		snap.Started, snap.Finished.Sub(snap.Started), map[string]string{
			"job": snap.ID, "kind": string(snap.Kind), "state": string(snap.State),
		})
}

// await blocks until the job is terminal or the caller goes away (then the
// job is canceled — nobody is left to read the answer). Reports whether a
// response should still be written.
func (s *Server) await(w http.ResponseWriter, r *http.Request, job *jobs.Job) bool {
	select {
	case <-job.Done():
		return true
	case <-r.Context().Done():
		job.Cancel()
		return false
	}
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	all := s.mgr.Jobs()
	resp := client.JobsResponse{Jobs: make([]client.JobStatus, 0, len(all))}
	for _, j := range all {
		resp.Jobs = append(resp.Jobs, status(j))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.streamJob(w, r, job)
		return
	}
	// The status is read before the result: a job that finishes in between
	// shows as running beside its result, never as done without it.
	// JobResponse has no field for a chunk's results, which only the
	// chunk's own reply carries.
	st := status(job)
	var key string
	var result []byte
	switch job.Kind {
	case jobs.KindRun:
		key, result = "result", job.Result()
	case jobs.KindBatch:
		key, result = "batch", job.Result()
	}
	writeJobReply(w, st, key, result, cacheHitTail(st.CacheHit))
}

// streamJob serves the SSE progress feed: one "progress" event per
// snapshot, a final "done" event carrying the terminal snapshot, then EOF.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, job *jobs.Job) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	sub, stop := job.Subscribe()
	defer stop()
	for {
		select {
		case snap, ok := <-sub:
			if !ok {
				return
			}
			st := snapshotStatus(snap)
			event := "progress"
			if st.Terminal() {
				event = "done"
			}
			data, err := json.Marshal(st)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
			flusher.Flush()
			if st.Terminal() {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusOK, client.JobResponse{Job: status(job)})
}

func (s *Server) handleSpecs(w http.ResponseWriter, r *http.Request) {
	resp := client.SpecsResponse{}
	for _, spec := range elect.Registry() {
		engines := make([]string, 0, 2)
		for _, e := range spec.Engines() {
			engines = append(engines, e.String())
		}
		resp.Specs = append(resp.Specs, client.SpecInfo{
			Name:          spec.Name,
			Model:         spec.Model.String(),
			Paper:         spec.Paper,
			Description:   spec.Description,
			Engines:       engines,
			SmallIDSpace:  spec.SmallIDSpace,
			Deterministic: spec.Deterministic,
			FaultTolerant: spec.FaultTolerant,
			Topologies:    spec.Topologies,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleTraces lists recent traces, newest first, capped at ?limit=
// (default 100); ?since=US keeps only traces starting after that unix
// microsecond, so pollers can page instead of re-reading the full window.
// Each entry summarizes the trace by its root span (the earliest span
// whose parent is unknown to this daemon) and the overall time window.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	since, limit, err := parsePage(r, 100)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp := client.TracesResponse{Traces: []client.TraceSummary{}}
	for _, id := range s.spans.TraceIDs(limit) {
		spans := s.spans.Trace(id)
		if len(spans) == 0 {
			continue // evicted between TraceIDs and Trace
		}
		known := make(map[obs.SpanID]bool, len(spans))
		for _, sp := range spans {
			known[sp.ID] = true
		}
		root, first, last := spans[0], spans[0].Start, spans[0].End()
		for _, sp := range spans {
			if sp.Start < first {
				first = sp.Start
			}
			if sp.End() > last {
				last = sp.End()
			}
			orphan := sp.Parent.IsZero() || !known[sp.Parent]
			rootOrphan := root.Parent.IsZero() || !known[root.Parent]
			if orphan && (!rootOrphan || sp.Start < root.Start) {
				root = sp
			}
		}
		if since > 0 && first <= int64(since) {
			continue
		}
		resp.Traces = append(resp.Traces, client.TraceSummary{
			ID: id.String(), Root: root.Name, Service: root.Service,
			Spans: len(spans), StartUS: first, DurUS: last - first,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleTrace returns every span this daemon holds for one trace, in
// insertion order.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, ok := obs.ParseTraceID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad trace id %q", r.PathValue("id")))
		return
	}
	spans := s.spans.Trace(id)
	if len(spans) == 0 {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown trace %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, client.TraceResponse{ID: id.String(), Spans: spans})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	counts := s.mgr.Counts()
	batchWorkers := s.cfg.BatchWorkers
	if batchWorkers <= 0 {
		batchWorkers = runtime.GOMAXPROCS(0)
	}
	h := client.Health{
		OK:            true,
		Version:       Version,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Jobs:          map[string]int{},
		QueueDepth:    s.mgr.QueueDepth(),
		ActiveJobs:    counts[jobs.Running],
		BatchWorkers:  batchWorkers,
	}
	for state, n := range counts {
		h.Jobs[string(state)] = n
	}
	if s.cfg.Cache != nil {
		cs := s.cfg.Cache.Stats()
		h.Cache = &cs
	}
	if s.cfg.Control != nil {
		st := s.cfg.Control.Status()
		h.Role = string(st.Role)
		h.Epoch = st.Epoch
	}
	writeJSON(w, http.StatusOK, h)
}

// handleLease is the grant side of the control plane: the body is a
// campaign or renewal request, and the verdict comes straight from the
// node's at-most-once-per-epoch rule. Timestamps use the control node's
// clock so the chaos harness can drive this handler on virtual time.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req client.LeaseRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Holder == "" || req.Epoch == 0 {
		writeError(w, http.StatusBadRequest, errors.New("lease needs a holder and a nonzero epoch"))
		return
	}
	resp := s.cfg.Control.HandleLease(req, s.cfg.Control.Now())
	writeJSON(w, http.StatusOK, resp)
}

// handleCoordinator answers who this daemon believes leads the fleet.
func (s *Server) handleCoordinator(w http.ResponseWriter, r *http.Request) {
	st := s.cfg.Control.Status()
	writeJSON(w, http.StatusOK, client.CoordinatorResponse{
		Self:        s.cfg.Control.Self(),
		Role:        string(st.Role),
		Epoch:       st.Epoch,
		Coordinator: st.Coordinator,
	})
}

// writeFenceError maps a stale fencing token to the 409 the dispatch
// fabric understands: the body carries the current epoch and believed
// coordinator so the deposed dispatcher can resynchronize.
func writeFenceError(w http.ResponseWriter, err error) {
	resp := client.ErrorResponse{Error: err.Error()}
	var stale *control.StaleTokenError
	if errors.As(err, &stale) {
		resp.Epoch = stale.Epoch
		resp.Coordinator = stale.Coordinator
	}
	writeJSON(w, http.StatusConflict, resp)
}

// status converts a live job to its wire view.
func status(j *jobs.Job) client.JobStatus { return snapshotStatus(j.Snapshot()) }

func snapshotStatus(s jobs.Snapshot) client.JobStatus {
	return client.JobStatus{
		ID: s.ID, Kind: string(s.Kind), Spec: s.Spec, State: string(s.State),
		Error: s.Err, Done: s.Done, Total: s.Total, CacheHit: s.CacheHit,
		Created: s.Created, Started: s.Started, Finished: s.Finished,
	}
}

func decodeBody(r *http.Request, out any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	if err := dec.Decode(out); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, client.ErrorResponse{Error: err.Error()})
}

// writeSubmitError maps queue conditions to HTTP: a full queue is 503 with
// Retry-After, a closed manager 503 too.
func writeSubmitError(w http.ResponseWriter, err error) {
	if errors.Is(err, jobs.ErrQueueFull) || errors.Is(err, jobs.ErrClosed) {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeError(w, http.StatusBadRequest, err)
}
