package client

import (
	"fmt"
	"time"

	"cliquelect/elect"
	"cliquelect/internal/obs"
	"cliquelect/internal/resultcache"
)

// This file defines the electd wire schema: the JSON request and response
// bodies spoken on both sides of the daemon's HTTP API. The daemon
// (internal/service) imports these types rather than redeclaring them, so
// client and server cannot drift. Like the elect result codec, the schema
// is stable v1: field renames and retypes are wire breaks, additions are
// fine.

// ParamSpec is the wire form of elect.Params with explicit presence: nil
// fields keep their elect.DefaultParams value, set fields override it. That
// way {"params":{"k":4}} means "K=4, everything else default" instead of
// zeroing the untouched parameters.
type ParamSpec struct {
	K   *int     `json:"k,omitempty"`
	D   *int     `json:"d,omitempty"`
	G   *int     `json:"g,omitempty"`
	Eps *float64 `json:"eps,omitempty"`
}

// merge applies the set fields over base.
func (p *ParamSpec) merge(base elect.Params) elect.Params {
	if p == nil {
		return base
	}
	if p.K != nil {
		base.K = *p.K
	}
	if p.D != nil {
		base.D = *p.D
	}
	if p.G != nil {
		base.G = *p.G
	}
	if p.Eps != nil {
		base.Eps = *p.Eps
	}
	return base
}

// Options carries the run knobs shared by single runs and batches; the
// zero value is "all defaults". Fields correspond one-to-one to elect's
// functional options.
type Options struct {
	// Engine pins the execution engine: "auto" (default), "sync", "async"
	// or "live". Live runs are nondeterministic and always bypass the
	// result cache.
	Engine string `json:"engine,omitempty"`
	// Params overrides protocol parameters field by field (see ParamSpec).
	Params *ParamSpec `json:"params,omitempty"`
	// Delays names the async delay profile: "unit" (default), "uniform",
	// "skew".
	Delays string `json:"delays,omitempty"`
	// Wake samples an adversarial wake-up set of this size; WakeSet names
	// the woken nodes explicitly and overrides Wake.
	Wake    int   `json:"wake,omitempty"`
	WakeSet []int `json:"wake_set,omitempty"`
	// IDs supplies an explicit ID assignment (single runs; the length must
	// equal n).
	IDs []int64 `json:"ids,omitempty"`
	// Budget aborts runs beyond this many messages.
	Budget int64 `json:"budget,omitempty"`
	// Explicit wraps synchronous protocols in the explicit-election
	// transformation.
	Explicit bool `json:"explicit,omitempty"`
	// Trace attaches the communication-graph summary (sync engine only).
	Trace bool `json:"trace,omitempty"`
	// RoundTrace attaches the per-round telemetry timeline (simulators
	// only; see elect.WithRoundTrace).
	RoundTrace bool `json:"round_trace,omitempty"`
	// Faults is a fault plan in elect.ParseFaults syntax, e.g.
	// "drop=0.1,crash=0.05". Plans with "adaptive=N" are uncacheable and
	// bypass the result cache.
	Faults string `json:"faults,omitempty"`
	// Topo is a topology spec in elect.WithTopology syntax, e.g. "ring" or
	// "rreg:d=8"; empty means the default clique. Batches sweeping several
	// topologies use the request's Topos axis instead.
	Topo string `json:"topo,omitempty"`
	// NoCache bypasses the daemon's result cache for this request.
	NoCache bool `json:"no_cache,omitempty"`
}

// resolve converts the wire knobs into elect functional options.
func (o Options) resolve(model elect.Model) ([]elect.Option, error) {
	opts := []elect.Option{elect.WithParams(o.Params.merge(elect.DefaultParams()))}
	if o.Engine != "" {
		eng, err := elect.ParseEngine(o.Engine)
		if err != nil {
			return nil, err
		}
		opts = append(opts, elect.WithEngine(eng))
	}
	if o.Delays != "" {
		// WithDelays errors on the sync engine even for the default profile,
		// so only forward it when it means something.
		profile, err := elect.ParseDelays(o.Delays)
		if err != nil {
			return nil, err
		}
		if model != elect.Async {
			return nil, fmt.Errorf("delays apply to asynchronous specs only")
		}
		opts = append(opts, elect.WithDelays(profile))
	}
	if o.WakeSet != nil {
		opts = append(opts, elect.WithWakeSet(o.WakeSet))
	} else if o.Wake > 0 {
		opts = append(opts, elect.WithWake(o.Wake))
	}
	if o.IDs != nil {
		opts = append(opts, elect.WithIDs(o.IDs))
	}
	if o.Budget > 0 {
		opts = append(opts, elect.WithMessageBudget(o.Budget))
	}
	if o.Explicit {
		opts = append(opts, elect.WithExplicit())
	}
	if o.Trace {
		opts = append(opts, elect.WithTrace())
	}
	if o.RoundTrace {
		opts = append(opts, elect.WithRoundTrace())
	}
	if o.Faults != "" {
		plan, err := elect.ParseFaults(o.Faults)
		if err != nil {
			return nil, err
		}
		opts = append(opts, elect.WithFaults(plan))
	}
	if o.Topo != "" {
		opts = append(opts, elect.WithTopology(o.Topo))
	}
	return opts, nil
}

// RunRequest is the body of POST /v1/run: one election.
type RunRequest struct {
	// Spec names the protocol (see GET /v1/specs).
	Spec string `json:"spec"`
	// N is the clique size; 0 means 64.
	N int `json:"n,omitempty"`
	// Seed drives everything reproducible about the run.
	Seed uint64 `json:"seed,omitempty"`
	Options
	// Async makes the daemon return a queued job immediately (HTTP 202)
	// instead of waiting for the result; poll or stream GET /v1/jobs/{id}.
	Async bool `json:"async,omitempty"`
}

// Resolve looks up the spec and converts the request into elect options.
func (r RunRequest) Resolve() (elect.Spec, []elect.Option, error) {
	spec, err := elect.Lookup(r.Spec)
	if err != nil {
		return elect.Spec{}, nil, err
	}
	opts, err := r.Options.resolve(spec.Model)
	if err != nil {
		return elect.Spec{}, nil, err
	}
	if r.N > 0 {
		opts = append(opts, elect.WithN(r.N))
	}
	opts = append(opts, elect.WithSeed(r.Seed))
	return spec, opts, nil
}

// BatchRequest is the body of POST /v1/batch: a multi-size, multi-seed
// sweep of one spec.
type BatchRequest struct {
	Spec string `json:"spec"`
	// Ns lists the network sizes; empty means {64}.
	Ns []int `json:"ns,omitempty"`
	// Seeds lists the seeds per size. The SeedBase/SeedCount pair is the
	// compact alternative (seeds base..base+count-1); setting both it and
	// Seeds is an error. All empty means {1}.
	Seeds     []uint64 `json:"seeds,omitempty"`
	SeedBase  uint64   `json:"seed_base,omitempty"`
	SeedCount int      `json:"seed_count,omitempty"`
	// Topos lists topology specs swept as the outermost grid axis; empty
	// means the single default clique (or Options.Topo when set).
	Topos []string `json:"topos,omitempty"`
	// Workers bounds the per-job worker pool; 0 means GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// Fleet asks the daemon to shard this batch across its HA fleet
	// (internal/distrib over the -peers list) instead of computing it
	// locally. Only the current coordinator accepts fleet batches; any
	// other daemon answers 409 with the coordinator's URL and epoch so the
	// client can resubmit there.
	Fleet bool `json:"fleet,omitempty"`
	Options
	// Async, as in RunRequest.
	Async bool `json:"async,omitempty"`
}

// Resolve converts the request into a spec and an elect.Batch.
func (r BatchRequest) Resolve() (elect.Spec, elect.Batch, error) {
	spec, err := elect.Lookup(r.Spec)
	if err != nil {
		return elect.Spec{}, elect.Batch{}, err
	}
	opts, err := r.Options.resolve(spec.Model)
	if err != nil {
		return elect.Spec{}, elect.Batch{}, err
	}
	seeds := r.Seeds
	if r.SeedBase != 0 || r.SeedCount != 0 {
		if len(seeds) > 0 {
			return elect.Spec{}, elect.Batch{}, fmt.Errorf("set either seeds or seed_base/seed_count, not both")
		}
		if r.SeedCount <= 0 {
			return elect.Spec{}, elect.Batch{}, fmt.Errorf("seed_base without a positive seed_count")
		}
		seeds = elect.Seeds(r.SeedBase, r.SeedCount)
	}
	return spec, elect.Batch{
		Ns: r.Ns, Seeds: seeds, Topos: r.Topos, Options: opts, Workers: r.Workers,
	}, nil
}

// ChunkRequest is the body of POST /v1/chunk: a contiguous cell range of a
// batch grid, executed synchronously. It is the worker-side wire form of
// distributed dispatch (internal/distrib shards a grid into these): Ns,
// Seeds and Topos describe the FULL grid in canonical topo-major,
// size-major, seed-minor order, and Start/Count select the cells this
// worker computes — so every worker sees the same grid and cell indexing,
// whatever subset it is handed.
type ChunkRequest struct {
	Spec string `json:"spec"`
	// Ns and Seeds are the full grid axes; empty means {64} and {1} as in
	// BatchRequest (the scheduler normally sends both explicitly). Topos is
	// the outermost axis; empty means the single default clique.
	Ns    []int    `json:"ns,omitempty"`
	Seeds []uint64 `json:"seeds,omitempty"`
	Topos []string `json:"topos,omitempty"`
	// Start/Count select cells [start, start+count) of the grid.
	Start int `json:"start"`
	Count int `json:"count"`
	// Workers caps the chunk's local parallelism; 0 defers to the daemon's
	// batch-workers cap.
	Workers int `json:"workers,omitempty"`
	// Fence is the dispatching coordinator's fencing token (its election
	// epoch, see internal/control). A fleet-managed daemon rejects chunks
	// whose token predates its current epoch with 409 — the split-brain
	// guard against deposed coordinators. 0 means an unfenced dispatcher
	// (a plain sweep CLI fleet), always accepted. Also sent as the
	// FenceHeader request header.
	Fence uint64 `json:"fence,omitempty"`
	Options
}

// Resolve converts the request into a spec, a batch and the cell range.
func (r ChunkRequest) Resolve() (elect.Spec, elect.Batch, error) {
	spec, err := elect.Lookup(r.Spec)
	if err != nil {
		return elect.Spec{}, elect.Batch{}, err
	}
	opts, err := r.Options.resolve(spec.Model)
	if err != nil {
		return elect.Spec{}, elect.Batch{}, err
	}
	return spec, elect.Batch{
		Ns: r.Ns, Seeds: r.Seeds, Topos: r.Topos, Options: opts, Workers: r.Workers,
	}, nil
}

// ChunkResponse is the body answering POST /v1/chunk: one Result per cell
// of the requested range, in cell order, on the stable result codec.
type ChunkResponse struct {
	Results []elect.Result `json:"results"`
	// Spans carries the worker-side spans of a traced chunk (the serving
	// root, queue wait and execution) so the coordinator can merge every
	// worker's view into one fleet trace. A trailing, omitted-when-empty
	// addition — not a wire break.
	Spans []obs.Span `json:"spans,omitempty"`
	// Wire is never sent. Client.Chunk sets it when it splits the reply by
	// hand: Wire[i] holds the bytes Results[i] was decoded from when they
	// are canonical (exactly what elect.EncodeResult writes for it), else
	// nil. It is nil altogether when the reply took encoding/json's path.
	Wire [][]byte `json:"-"`
}

// JobStatus is the wire view of one job (see GET /v1/jobs/{id} and the SSE
// progress events).
type JobStatus struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"` // "run", "batch" or "chunk"
	Spec  string `json:"spec"`
	State string `json:"state"` // queued, running, done, failed, canceled
	Error string `json:"error,omitempty"`
	// Done/Total are the progress counters: runs completed vs. runs in the
	// job (1/1 for single runs).
	Done  int `json:"done"`
	Total int `json:"total"`
	// CacheHit reports that a single run was served from the result cache.
	CacheHit bool      `json:"cache_hit,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
}

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool {
	return s.State == "done" || s.State == "failed" || s.State == "canceled"
}

// RunResponse is the body answering POST /v1/run: the job view plus, once
// done, the result.
type RunResponse struct {
	Job      JobStatus     `json:"job"`
	Result   *elect.Result `json:"result,omitempty"`
	CacheHit bool          `json:"cache_hit"`
}

// BatchResponse is the batch counterpart of RunResponse.
type BatchResponse struct {
	Job    JobStatus          `json:"job"`
	Result *elect.BatchResult `json:"result,omitempty"`
}

// JobResponse is the body of GET /v1/jobs/{id}: the job plus the result a
// done run (Result) or batch (Batch) still holds. An async job holds it
// until the daemon's job table forgets the job. A synchronous job hands it
// to its POST reply, so a GET afterwards carries the status only, and a
// chunk job's results only ever ride its POST /v1/chunk reply.
type JobResponse struct {
	Job      JobStatus          `json:"job"`
	Result   *elect.Result      `json:"result,omitempty"`
	Batch    *elect.BatchResult `json:"batch,omitempty"`
	CacheHit bool               `json:"cache_hit"`
}

// JobsResponse is the body of GET /v1/jobs.
type JobsResponse struct {
	Jobs []JobStatus `json:"jobs"`
}

// SpecInfo describes one registered protocol (GET /v1/specs).
type SpecInfo struct {
	Name          string   `json:"name"`
	Model         string   `json:"model"`
	Paper         string   `json:"paper"`
	Description   string   `json:"description"`
	Engines       []string `json:"engines"`
	SmallIDSpace  bool     `json:"small_id_space"`
	Deterministic bool     `json:"deterministic"`
	FaultTolerant bool     `json:"fault_tolerant"`
	// Topologies lists the non-clique topology families the spec supports
	// (elect.Spec.Topologies); empty means clique-only.
	Topologies []string `json:"topologies,omitempty"`
}

// SpecsResponse is the body of GET /v1/specs.
type SpecsResponse struct {
	Specs []SpecInfo `json:"specs"`
}

// CacheStats is the daemon's result-cache counters as /healthz reports
// them: the cache's own Stats snapshot, tags and all.
type CacheStats = resultcache.Stats

// Health is the body of GET /healthz. A fleet coordinator (internal/distrib)
// reads only OK, to revive a worker it marked down; the load gauges (how
// much work is waiting, how much is executing, and how parallel each job may
// run) are for operators and monitoring.
type Health struct {
	OK bool `json:"ok"`
	// Version is the daemon's service version (service.Version).
	Version       string         `json:"version,omitempty"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	Jobs          map[string]int `json:"jobs"`
	// QueueDepth is the number of jobs (runs, batches, chunks) accepted but
	// not yet executing.
	QueueDepth int `json:"queue_depth"`
	// ActiveJobs is the number of jobs currently executing.
	ActiveJobs int `json:"active_jobs"`
	// BatchWorkers is the daemon's effective per-job sweep parallelism — the
	// -batch-workers cap, or GOMAXPROCS when uncapped — i.e. this worker's
	// per-chunk capacity.
	BatchWorkers int         `json:"batch_workers"`
	Cache        *CacheStats `json:"cache,omitempty"`
	// Role and Epoch surface the control plane (internal/control) on
	// fleet-managed daemons: "coordinator" or "worker", and the highest
	// election epoch the daemon has seen. Both empty/zero on standalone
	// daemons, so an operator's probe can tell who is leading.
	Role  string `json:"role,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// TraceSummary is one entry of GET /v1/traces: a recent trace summarized
// by its root span (the earliest span whose parent the daemon doesn't hold)
// and its overall time window in microseconds.
type TraceSummary struct {
	ID      string `json:"id"`
	Root    string `json:"root"`
	Service string `json:"service"`
	Spans   int    `json:"spans"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

// TracesResponse is the body of GET /v1/traces, newest trace first.
type TracesResponse struct {
	Traces []TraceSummary `json:"traces"`
}

// TraceResponse is the body of GET /v1/traces/{id}: every span the daemon
// holds for one trace, in insertion order.
type TraceResponse struct {
	ID    string     `json:"id"`
	Spans []obs.Span `json:"spans"`
}

// ErrorResponse is the body of every non-2xx API answer. Fencing
// rejections (409 on /v1/chunk and /v1/batch) additionally carry the
// daemon's current epoch and believed coordinator, so a deposed dispatcher
// can resynchronize instead of guessing.
type ErrorResponse struct {
	Error       string `json:"error"`
	Epoch       uint64 `json:"epoch,omitempty"`
	Coordinator string `json:"coordinator,omitempty"`
}

// LeaseRequest is the body of POST /v1/lease: a coordinator candidate (or
// incumbent) asking this daemon to grant — or renew — the lease for one
// election epoch. Grants are at-most-once per epoch per daemon; an equal
// epoch from the recorded holder is a renewal. See internal/control.
type LeaseRequest struct {
	// Epoch is the epoch being campaigned for (fresh grants need
	// Epoch > the grantor's current epoch) or renewed (Epoch equal, Holder
	// matching).
	Epoch uint64 `json:"epoch"`
	// Holder is the candidate's own URL as listed in the fleet's peer set.
	Holder string `json:"holder"`
}

// LeaseResponse answers POST /v1/lease: the verdict plus the grantor's
// current epoch and believed holder (on rejection these tell the
// campaigner which election it lost to).
type LeaseResponse struct {
	Granted bool   `json:"granted"`
	Epoch   uint64 `json:"epoch"`
	Holder  string `json:"holder,omitempty"`
}

// CoordinatorResponse is the body of GET /v1/coordinator: who this daemon
// believes leads the fleet, and its own role in it.
type CoordinatorResponse struct {
	// Self is this daemon's URL in the peer set; Role its current role
	// ("coordinator" or "worker").
	Self string `json:"self"`
	Role string `json:"role"`
	// Epoch is the highest election epoch this daemon has seen;
	// Coordinator the lease holder's URL while a lease is live (empty when
	// unknown or expired).
	Epoch       uint64 `json:"epoch"`
	Coordinator string `json:"coordinator,omitempty"`
}

// EventsResponse is the body of GET /v1/events: the daemon's recent journal
// entries, oldest first. ?since=SEQ returns only events newer than that
// sequence number (for tailing) and ?limit=N keeps only the newest N.
type EventsResponse struct {
	// Node is the daemon's instance name, stamped on its events.
	Node   string      `json:"node,omitempty"`
	Events []obs.Event `json:"events"`
}

// RouteStats is one route's request/latency digest inside a NodeStatus —
// what electtop's route table renders.
type RouteStats struct {
	Route    string `json:"route"`
	Requests int64  `json:"requests"`
	// Errors counts 5xx answers on this route.
	Errors int64 `json:"errors"`
	// P50Ms and P99Ms are latency quantiles in milliseconds, interpolated
	// from the daemon's request histogram.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// NodeStatus is one daemon's slice of GET /v1/fleetz: control-plane
// position, load, cache efficiency, SLO verdict, per-route latency and its
// most recent journal events. Unreachable peers appear with Reachable
// false and only URL/Err set — a fleet snapshot never omits a configured
// node.
type NodeStatus struct {
	URL       string `json:"url"`
	Reachable bool   `json:"reachable"`
	Err       string `json:"err,omitempty"`

	Role        string `json:"role,omitempty"`
	Epoch       uint64 `json:"epoch,omitempty"`
	Coordinator string `json:"coordinator,omitempty"`

	UptimeSeconds float64 `json:"uptime_seconds,omitempty"`
	QueueDepth    int     `json:"queue_depth"`
	ActiveJobs    int     `json:"active_jobs"`
	// CacheHitRatio is hits/(hits+misses) over the daemon's lifetime, -1
	// when the daemon runs without a cache.
	CacheHitRatio float64 `json:"cache_hit_ratio"`

	Goroutines int   `json:"goroutines,omitempty"`
	HeapBytes  int64 `json:"heap_bytes,omitempty"`
	// RSSBytes is the process resident set size (0 where unavailable).
	RSSBytes int64 `json:"rss_bytes,omitempty"`

	// SLO is the node's burn-rate verdict (nil on daemons predating it).
	SLO *obs.SLOStatus `json:"slo,omitempty"`
	// Routes is the per-route digest, busiest first.
	Routes []RouteStats `json:"routes,omitempty"`
	// Events is the node's recent journal tail, oldest first.
	Events []obs.Event `json:"events,omitempty"`
}

// FleetzResponse is the body of GET /v1/fleetz: the answering daemon's
// merged view of the whole fleet — every configured peer probed
// concurrently, plus fleet-level consensus and health roll-ups. On a
// standalone daemon it carries exactly one node.
type FleetzResponse struct {
	// Self is the answering daemon's URL (its instance name when it has no
	// peer set); TSUS the snapshot time in unix microseconds.
	Self string `json:"self"`
	TSUS int64  `json:"ts_us"`

	// Coordinator and Epoch are the answering daemon's view of the lease;
	// Coordinators counts nodes claiming the coordinator role (1 is
	// healthy; 0 means an election is due; >1 should be impossible);
	// EpochAgreement reports whether every reachable node sees the same
	// epoch.
	Coordinator    string `json:"coordinator,omitempty"`
	Epoch          uint64 `json:"epoch,omitempty"`
	Coordinators   int    `json:"coordinators"`
	EpochAgreement bool   `json:"epoch_agreement"`

	// Health is the fleet verdict: the worst node verdict, with
	// unreachable nodes counting as worst of all.
	Health string `json:"health"`

	// Nodes lists every configured daemon, sorted by URL; Events is the
	// fleet-wide journal merge, timestamp-ordered, newest window only.
	Nodes  []NodeStatus `json:"nodes"`
	Events []obs.Event  `json:"events,omitempty"`
}
