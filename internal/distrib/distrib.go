// Package distrib is the distributed dispatch fabric: it shards a batch
// grid into deterministic cell chunks and farms them out to a fleet of
// remote electd workers over the /v1/chunk wire call, merging the results
// into exactly the grid a local elect.RunMany would produce.
//
// A Fleet is a registry of workers with health probes and in-flight
// tracking. Runner binds a Fleet to the wire-form options of one sweep
// configuration and yields an elect.RemoteRunner, so dispatch plugs into
// the public API as Batch.Remote:
//
//	fleet, _ := distrib.New(distrib.Config{Workers: hosts})
//	b.Remote = fleet.Runner(client.Options{Params: &client.ParamSpec{K: &k}})
//	batch, err := elect.RunMany(spec, b) // remote, byte-identical to local
//
// The determinism contract (ARCHITECTURE.md) is what makes the fabric
// sound: every cell's Result is a pure function of its own (topo, n, seed), so
// chunk placement, failover, straggler duplicates and merge order cannot
// change a single result byte. A sweep run on 8 daemons is byte-identical
// to the same sweep run on 1 local core — including when a worker dies
// mid-sweep and its chunks fail over to the survivors (or, with no
// survivor left, to local execution). The merger reuses the fingerprint
// cache: cells already cached are never dispatched, merged results are
// stored back, and so re-dispatched or re-run cells are free.
package distrib

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cliquelect/elect"
	"cliquelect/elect/client"
	"cliquelect/internal/obs"
)

// Config assembles a Fleet.
type Config struct {
	// Workers lists the electd base URLs; a bare "host:port" is given the
	// http scheme. At least one is required.
	Workers []string
	// ChunkSize overrides the deterministic per-grid chunk size; 0 means
	// DefaultChunkSize(total). Must not depend on fleet size (the
	// partitioner contract).
	ChunkSize int
	// ProbeTimeout bounds each health probe; 0 means 2s.
	ProbeTimeout time.Duration
	// StragglerAfter is how long a chunk may be in flight before an idle
	// worker is given a duplicate copy (first answer wins); 0 means 30s.
	StragglerAfter time.Duration
	// Logf, when non-nil, receives one line per fleet event (probe results,
	// failovers, straggler re-dispatches).
	Logf func(format string, args ...any)
	// ClientOptions are applied to every worker's client (retry tuning,
	// test transports).
	ClientOptions []client.ClientOption
	// Spans, when non-nil, collects the coordinator-side trace: one grid
	// span per RunGrid, one chunk.dispatch span per dispatch attempt, and
	// the worker-side spans returned in chunk responses. Worker clients are
	// wired into the same collector. Purely observational — scheduling
	// decisions never read it.
	Spans *obs.SpanCollector
	// Root, when valid, parents every grid span, so a multi-grid sweep
	// (cmd/sweep's parameter loop) forms one trace; otherwise each RunGrid
	// roots its own.
	Root obs.SpanContext
	// Fence, when non-nil, supplies the dispatcher's fencing token (the
	// control plane's election epoch — see internal/control; electd wires
	// control.Node.Token here). The token is captured once per grid and
	// stamped on every chunk; a worker holding a newer epoch rejects the
	// chunk with 409, and a token change observed mid-grid aborts the grid
	// with ErrFenced — both mean this dispatcher was deposed. Nil means
	// unfenced dispatch (the plain sweep CLI).
	Fence func() uint64
	// Events, when non-nil, journals fleet scheduling events (worker
	// liveness transitions, chunk failovers, straggler duplicates) into the
	// daemon's event log. Settable later via SetEvents.
	Events *obs.EventLog
}

// ErrFenced means the dispatcher was deposed mid-grid: either a worker
// rejected a chunk's fencing token as stale (409), or the local token
// advanced past the one the grid started with. The grid's results are
// abandoned — the new coordinator owns the work now.
var ErrFenced = errors.New("distrib: dispatcher fenced off (coordinator deposed)")

// Fleet is a registry of electd workers plus the chunk scheduler. All
// methods are safe for concurrent use, and one Fleet may serve many grids
// (cmd/sweep reuses it across its parameter loop).
type Fleet struct {
	cfg     Config
	workers []*worker
	events  atomic.Pointer[obs.EventLog] // swappable journal; nil Load is a no-op Emit

	retried     atomic.Int64 // chunks re-dispatched (failover + stragglers)
	localCells  atomic.Int64 // cells executed locally because no worker was alive
	cachedCells atomic.Int64 // cells resolved from the fingerprint cache, never dispatched
}

// worker is one registered electd daemon and its live accounting.
type worker struct {
	url string
	c   *client.Client

	mu         sync.Mutex
	alive      bool
	queueDepth int    // from the last probe: jobs waiting on the daemon
	capacity   int    // from the last probe: the daemon's batch_workers
	role       string // from the last probe: control-plane role ("" standalone)
	epoch      uint64 // from the last probe: highest election epoch seen
	inflight   int    // chunks currently dispatched to this worker

	cells  int64
	chunks int64
	busy   time.Duration

	// dispatch telemetry: every attempt (successful or not), failed
	// attempts, straggler duplicates, and the chunk-latency envelope of the
	// successful ones.
	dispatches int64
	failures   int64
	stragglers int64
	minLat     time.Duration
	maxLat     time.Duration
}

// noteDispatch records one dispatch attempt landing on this worker; dup
// marks a straggler duplicate of a chunk already in flight elsewhere.
func (w *worker) noteDispatch(dup bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.dispatches++
	if dup {
		w.stragglers++
	}
}

// New builds a Fleet over the given worker URLs. No probing happens here;
// the first RunGrid (or an explicit Probe) discovers who is alive.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("distrib: no workers configured")
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.StragglerAfter <= 0 {
		cfg.StragglerAfter = 30 * time.Second
	}
	copts := cfg.ClientOptions
	if cfg.Spans != nil {
		// Worker clients share the coordinator's collector, so their
		// request/attempt spans land in the same trace store as the
		// dispatch spans.
		copts = append(copts[:len(copts):len(copts)], client.WithSpanCollector(cfg.Spans))
	}
	f := &Fleet{cfg: cfg}
	if cfg.Events != nil {
		f.events.Store(cfg.Events)
	}
	for _, raw := range cfg.Workers {
		url := NormalizeURL(raw)
		if url == "" {
			return nil, fmt.Errorf("distrib: empty worker URL in %v", cfg.Workers)
		}
		f.workers = append(f.workers, &worker{url: url, c: client.New(url, copts...)})
	}
	return f, nil
}

// NormalizeURL turns a worker flag value into a base URL: whitespace is
// trimmed and a bare host:port gets the http scheme.
func NormalizeURL(s string) string {
	s = strings.TrimSpace(s)
	if s == "" {
		return ""
	}
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	return strings.TrimRight(s, "/")
}

// SetEvents directs fleet scheduling events into log (cmd/electd wires the
// service's journal in after constructing both). Safe to call while grids
// are in flight.
func (f *Fleet) SetEvents(log *obs.EventLog) { f.events.Store(log) }

// ev is the current journal — nil when journaling is off, which makes every
// Emit a single-branch no-op.
func (f *Fleet) ev() *obs.EventLog { return f.events.Load() }

// Probe health-checks every worker in parallel, refreshing liveness and the
// load gauges the scheduler balances on, and returns how many are alive. A
// worker marked dead by an earlier failure gets a fresh chance here.
func (f *Fleet) Probe(ctx context.Context) int {
	var wg sync.WaitGroup
	for _, w := range f.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, f.cfg.ProbeTimeout)
			defer cancel()
			h, err := w.c.Health(pctx)
			w.mu.Lock()
			was := w.alive
			w.alive = err == nil && h.OK
			if w.alive {
				w.queueDepth = h.QueueDepth
				w.capacity = h.BatchWorkers
				w.role = h.Role
				w.epoch = h.Epoch
			}
			now := w.alive
			w.mu.Unlock()
			switch {
			case now && !was:
				f.ev().Emit("worker.up", "url", w.url)
			case !now && was:
				f.ev().Emit("worker.down", "url", w.url, "reason", "probe")
			}
			if !now && f.cfg.Logf != nil {
				f.cfg.Logf("distrib: worker %s unreachable: %v", w.url, err)
			}
		}(w)
	}
	wg.Wait()
	alive := 0
	for _, w := range f.workers {
		w.mu.Lock()
		if w.alive {
			alive++
		}
		w.mu.Unlock()
	}
	return alive
}

// Runner binds the fleet to one sweep configuration's wire options and
// returns the elect.RemoteRunner to put in Batch.Remote. The wire options
// must describe the same configuration as the batch's elect options — the
// CLIs build both from the same flags.
func (f *Fleet) Runner(opts client.Options) elect.RemoteRunner {
	return &runner{f: f, opts: opts}
}

type runner struct {
	f    *Fleet
	opts client.Options
}

func (r *runner) RunGrid(spec elect.Spec, ns []int, seeds []uint64, b *elect.Batch) ([]elect.Result, error) {
	return r.f.runGrid(spec, ns, seeds, b, r.opts)
}

// chunkState is the scheduler's view of one chunk.
type chunkState struct {
	done     bool
	inflight int                  // concurrent dispatch attempts (straggler dups)
	since    time.Time            // first dispatch, for straggler detection
	on       map[*worker]struct{} // workers this chunk is currently running on
}

// completion is one dispatch attempt's outcome, delivered to the scheduler.
type completion struct {
	ci      int
	w       *worker
	results []elect.Result
	dur     time.Duration
	err     error
}

// runGrid is the scheduler: partition, probe, dispatch, failover, merge.
func (f *Fleet) runGrid(spec elect.Spec, ns []int, seeds []uint64, b *elect.Batch, wopts client.Options) (results []elect.Result, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Trace the grid when a collector or an inherited root is configured.
	// The grid span context also parents every chunk.dispatch and, through
	// the traced worker clients, the whole remote subtree.
	var gridSC obs.SpanContext
	if traced := f.cfg.Spans != nil || f.cfg.Root.Valid(); traced {
		if f.cfg.Root.Valid() {
			gridSC = f.cfg.Root.Child()
		} else {
			gridSC = obs.NewSpanContext()
		}
		gridStart := time.Now()
		defer func() {
			attrs := map[string]string{
				"spec":  spec.Name,
				"cells": strconv.Itoa(elect.GridSize(ns, seeds, b.Topos)),
			}
			if err != nil {
				attrs["error"] = err.Error()
			}
			f.cfg.Spans.Add(obs.Span{
				Trace: gridSC.Trace, ID: gridSC.Span, Parent: f.cfg.Root.Span,
				Name: "grid", Service: "sweep",
				Start: gridStart.UnixMicro(), Dur: time.Since(gridStart).Microseconds(),
				Attrs: attrs,
			})
		}()
	}
	if b.Cancel != nil {
		go func() {
			select {
			case <-b.Cancel:
				cancel()
			case <-ctx.Done():
			}
		}()
	}
	if f.Probe(ctx) == 0 {
		return nil, fmt.Errorf("distrib: none of %d workers alive: %w", len(f.workers), elect.ErrNoWorkers)
	}
	// The fencing token is captured once per grid: every chunk of this grid
	// carries the same token, and the scheduler aborts if the local token
	// moves on mid-grid (this dispatcher was deposed).
	var fence uint64
	if f.cfg.Fence != nil {
		fence = f.cfg.Fence()
	}

	total := elect.GridSize(ns, seeds, b.Topos)
	chunks := Partition(total, f.cfg.ChunkSize)
	runs := make([]elect.Result, total)
	keys := f.fingerprints(spec, ns, seeds, b)

	// localBatch executes chunks in-process: the failover of last resort
	// (and the cache probe path). Remote/OnResult are cleared — progress is
	// reported per merged cell by the scheduler itself.
	localBatch := *b
	localBatch.Ns, localBatch.Seeds = ns, seeds
	localBatch.Remote, localBatch.OnResult = nil, nil

	states := make([]chunkState, len(chunks))
	var merged int64 // cells merged, for OnResult
	doneChunks := 0
	// store is true only for remotely computed cells: cache-resolved chunks
	// were just read from the cache, and local-fallback cells were already
	// stored by RunCached — re-Putting either would rewrite disk entries
	// with the bytes they already hold.
	finish := func(ci int, results []elect.Result, store bool) {
		states[ci].done = true
		doneChunks++
		for i, res := range results {
			idx := chunks[ci].Start + i
			runs[idx] = res
			if store && keys != nil && keys[idx] != "" && b.Cache != nil {
				if data, err := elect.EncodeResult(res); err == nil {
					b.Cache.Put(keys[idx], data)
				}
			}
			merged++
			if b.OnResult != nil {
				b.OnResult(int(merged), total)
			}
		}
	}

	compCh := make(chan completion)
	outstanding := 0
	dispatch := func(ci int) bool {
		w := f.pickWorker(states[ci].on)
		if w == nil {
			return false
		}
		st := &states[ci]
		if st.on == nil {
			st.on = make(map[*worker]struct{}, 2)
		}
		st.on[w] = struct{}{}
		dup := st.inflight > 0
		w.noteDispatch(dup)
		st.inflight++
		if st.since.IsZero() {
			st.since = time.Now()
		}
		outstanding++
		ch := chunks[ci]
		go func() {
			start := time.Now()
			cctx := ctx
			var dispSC obs.SpanContext
			if gridSC.Valid() {
				// One dispatch span per attempt; the worker client reads the
				// context and parents its request/attempt spans (and, via the
				// traceparent header, the worker daemon's subtree) under it.
				dispSC = gridSC.Child()
				cctx = obs.ContextWithSpan(ctx, dispSC)
			}
			resp, err := w.c.Chunk(cctx, client.ChunkRequest{
				Spec: spec.Name, Ns: ns, Seeds: seeds, Topos: b.Topos,
				Start: ch.Start, Count: ch.Count, Fence: fence, Options: wopts,
			})
			comp := completion{ci: ci, w: w, dur: time.Since(start), err: err}
			if err == nil {
				if len(resp.Results) != ch.Count {
					comp.err = fmt.Errorf("distrib: worker %s returned %d results for a %d-cell chunk",
						w.url, len(resp.Results), ch.Count)
				} else {
					comp.results = resp.Results
				}
			}
			if dispSC.Valid() {
				attrs := map[string]string{
					"worker": w.url,
					"start":  strconv.Itoa(ch.Start),
					"count":  strconv.Itoa(ch.Count),
				}
				if dup {
					attrs["dup"] = "true"
				}
				if comp.err != nil {
					attrs["error"] = comp.err.Error()
				}
				f.cfg.Spans.Add(obs.Span{
					Trace: dispSC.Trace, ID: dispSC.Span, Parent: gridSC.Span,
					Name: "chunk.dispatch", Service: "sweep",
					Start: start.UnixMicro(), Dur: comp.dur.Microseconds(),
					Attrs: attrs,
				})
				if err == nil {
					// Merge the worker-side view (serve/queue/exec) into the
					// coordinator's trace.
					f.cfg.Spans.AddAll(resp.Spans)
				}
			}
			// Settle the worker's accounting here, not in the scheduler: when
			// runGrid exits with this dispatch still in flight (straggler race
			// won elsewhere, abort, cancel) the completion below is dropped,
			// and a reusable Fleet must not leak the in-flight slot.
			if w.endChunk(comp.err == nil, ch.Count, comp.dur) {
				f.ev().Emit("worker.down", "url", w.url, "reason", "chunk")
			}
			select {
			case compCh <- comp:
			case <-ctx.Done():
			}
		}()
		return true
	}

	pending := make([]int, 0, len(chunks))
	for ci := range chunks {
		pending = append(pending, ci)
	}
	stragglerTick := max(f.cfg.StragglerAfter/4, 10*time.Millisecond)

	for doneChunks < len(chunks) {
		if f.cfg.Fence != nil {
			if now := f.cfg.Fence(); now != fence {
				return nil, fmt.Errorf("distrib: fencing token advanced %d → %d mid-grid: %w",
					fence, now, ErrFenced)
			}
		}
		// Dispatch everything dispatchable; cache-satisfied chunks are merged
		// without touching the network (this is also what makes re-enqueued
		// chunks free when their cells got merged meanwhile).
		still := pending[:0]
		for _, ci := range pending {
			if states[ci].done {
				continue
			}
			if results, ok := f.fromCache(b.Cache, keys, chunks[ci]); ok {
				f.cachedCells.Add(int64(chunks[ci].Count))
				finish(ci, results, false)
				continue
			}
			if !dispatch(ci) {
				still = append(still, ci)
			}
		}
		pending = still
		if doneChunks == len(chunks) {
			break
		}

		if outstanding == 0 {
			if len(pending) == 0 {
				break
			}
			// Every worker is dead (or saturated to zero): fail the next
			// chunk over to local execution so the sweep still completes.
			ci := pending[0]
			pending = pending[1:]
			if f.cfg.Logf != nil {
				f.cfg.Logf("distrib: no worker alive, running chunk [%d, %d) locally",
					chunks[ci].Start, chunks[ci].End())
			}
			results, err := elect.RunRange(spec, localBatch, chunks[ci].Start, chunks[ci].Count)
			if err != nil {
				return nil, err
			}
			f.localCells.Add(int64(chunks[ci].Count))
			finish(ci, results, false)
			continue
		}

		select {
		case <-ctx.Done():
			return nil, elect.ErrCanceled
		case comp := <-compCh:
			outstanding--
			st := &states[comp.ci]
			st.inflight--
			delete(st.on, comp.w)
			switch {
			case comp.err != nil && fencedStatus(comp.err):
				// A worker holds a newer epoch than this grid's token: we were
				// deposed, and the new coordinator owns the remaining work.
				return nil, fmt.Errorf("distrib: chunk [%d, %d) on %s rejected (%v): %w",
					chunks[comp.ci].Start, chunks[comp.ci].End(), comp.w.url, comp.err, ErrFenced)
			case comp.err != nil && definite(comp.err):
				// The daemon answered: this configuration fails everywhere.
				return nil, fmt.Errorf("distrib: chunk [%d, %d) on %s: %w",
					chunks[comp.ci].Start, chunks[comp.ci].End(), comp.w.url, comp.err)
			case comp.err != nil:
				if f.cfg.Logf != nil {
					f.cfg.Logf("distrib: worker %s failed chunk [%d, %d): %v",
						comp.w.url, chunks[comp.ci].Start, chunks[comp.ci].End(), comp.err)
				}
				if !st.done && st.inflight == 0 {
					f.retried.Add(1)
					f.ev().Emit("chunk.failover",
						"worker", comp.w.url,
						"start", strconv.Itoa(chunks[comp.ci].Start),
						"count", strconv.Itoa(chunks[comp.ci].Count))
					pending = append(pending, comp.ci)
				}
			case st.done:
				// A straggler's duplicate finished too; first answer won.
			default:
				finish(comp.ci, comp.results, true)
			}
		case <-time.After(stragglerTick):
			for ci := range states {
				st := &states[ci]
				if st.done || st.inflight != 1 || time.Since(st.since) < f.cfg.StragglerAfter {
					continue
				}
				if dispatch(ci) {
					f.retried.Add(1)
					f.ev().Emit("chunk.straggler",
						"start", strconv.Itoa(chunks[ci].Start),
						"count", strconv.Itoa(chunks[ci].Count),
						"inflight", time.Since(st.since).Round(time.Millisecond).String())
					if f.cfg.Logf != nil {
						f.cfg.Logf("distrib: chunk [%d, %d) straggling %v, re-dispatched",
							chunks[ci].Start, chunks[ci].End(), time.Since(st.since).Round(time.Millisecond))
					}
				}
			}
		}
	}
	return runs, nil
}

// fingerprints computes every cell's cache key, or nil when the batch has
// no cache. Uncacheable configurations (adaptive adversaries) leave empty
// keys and always dispatch.
func (f *Fleet) fingerprints(spec elect.Spec, ns []int, seeds []uint64, b *elect.Batch) []string {
	if b.Cache == nil {
		return nil
	}
	keys := make([]string, elect.GridSize(ns, seeds, b.Topos))
	for idx := range keys {
		if key, err := elect.Fingerprint(spec, elect.CellOptions(b, ns, seeds, idx)...); err == nil {
			keys[idx] = key
		}
	}
	return keys
}

// fromCache resolves a whole chunk from the fingerprint cache, or reports
// false without side effects (partial hits still dispatch: the worker's own
// cache covers its cells).
func (f *Fleet) fromCache(cache elect.Cache, keys []string, ch Chunk) ([]elect.Result, bool) {
	if cache == nil || keys == nil {
		return nil, false
	}
	results := make([]elect.Result, ch.Count)
	for i := 0; i < ch.Count; i++ {
		key := keys[ch.Start+i]
		if key == "" {
			return nil, false
		}
		data, ok := cache.Get(key)
		if !ok {
			return nil, false
		}
		res, err := elect.DecodeResult(data)
		if err != nil {
			return nil, false
		}
		results[i] = res
	}
	return results, true
}

// definite reports errors a different worker cannot fix: the daemon
// answered with a non-transient status (bad request, failed execution), so
// the configuration itself is at fault and the grid must abort — exactly
// like the first run error aborting a local RunMany. Transience is decided
// by client.TransientStatus, the same predicate the retry loop uses.
func definite(err error) bool {
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		return false
	}
	return !client.TransientStatus(apiErr.StatusCode)
}

// fencedStatus reports a worker's 409: the chunk's fencing token is stale
// because a newer election epoch is live.
func fencedStatus(err error) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.StatusCode == 409
}

// maxInflight bounds the chunks concurrently in flight per worker, so a
// fast worker pipelines while a saturated one is left alone.
const maxInflight = 2

// pickWorker chooses the dispatch target: the alive worker with the fewest
// chunks in flight (below maxInflight), ties broken by the lighter
// probe-time queue, skipping workers in exclude (a straggler's duplicate
// must go somewhere new). Returns nil when nobody qualifies.
func (f *Fleet) pickWorker(exclude map[*worker]struct{}) *worker {
	var best *worker
	bestInflight, bestQueue := 0, 0
	for _, w := range f.workers {
		if _, dup := exclude[w]; dup {
			continue
		}
		w.mu.Lock()
		alive, inflight, queue := w.alive, w.inflight, w.queueDepth
		w.mu.Unlock()
		if !alive || inflight >= maxInflight {
			continue
		}
		if best == nil || inflight < bestInflight ||
			(inflight == bestInflight && queue < bestQueue) {
			best, bestInflight, bestQueue = w, inflight, queue
		}
	}
	if best != nil {
		best.mu.Lock()
		best.inflight++
		best.mu.Unlock()
	}
	return best
}

// endChunk settles a dispatch attempt: accounting on success, death on
// failure (the next Probe revives a restarted daemon). Reports whether this
// failure is what killed the worker, so the caller can journal exactly one
// worker.down per death.
func (w *worker) endChunk(ok bool, cells int, dur time.Duration) (died bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.inflight--
	if ok {
		w.cells += int64(cells)
		w.chunks++
		w.busy += dur
		if w.minLat == 0 || dur < w.minLat {
			w.minLat = dur
		}
		if dur > w.maxLat {
			w.maxLat = dur
		}
	} else {
		w.failures++
		died = w.alive
		w.alive = false
	}
	return died
}

// WorkerStats is one worker's accounting across the fleet's lifetime.
type WorkerStats struct {
	URL   string
	Alive bool
	// Role and Epoch are the worker's control-plane position from the last
	// probe ("" / 0 on standalone daemons) — the fleet footer's "who leads"
	// column.
	Role  string
	Epoch uint64
	// Chunks and Cells count successfully completed dispatches; Busy is the
	// wall time those chunks spent in flight.
	Chunks int64
	Cells  int64
	Busy   time.Duration
	// Dispatches counts every attempt landed on this worker, Failures the
	// attempts that errored, Stragglers the duplicate copies of chunks
	// already in flight elsewhere.
	Dispatches int64
	Failures   int64
	Stragglers int64
	// MinLat and MaxLat bound the successful chunk latencies (0 before any
	// chunk completes).
	MinLat time.Duration
	MaxLat time.Duration
	// Client is the worker client's lifetime retry telemetry.
	Client client.ClientStats
}

// CellsPerSec is the worker's observed throughput (0 before any chunk).
func (s WorkerStats) CellsPerSec() float64 {
	if s.Busy <= 0 {
		return 0
	}
	return float64(s.Cells) / s.Busy.Seconds()
}

// Stats is the fleet-wide accounting the sweep CLIs print.
type Stats struct {
	Workers []WorkerStats
	// ChunksRetried counts re-dispatches: failovers off dead workers plus
	// straggler duplicates.
	ChunksRetried int64
	// LocalCells counts cells executed in-process because no worker was
	// alive; CachedCells counts cells resolved from the fingerprint cache
	// without any dispatch.
	LocalCells  int64
	CachedCells int64
	// HTTPAttempts, HTTPRetries and RetryBackoff aggregate every worker
	// client's retry telemetry: total HTTP tries, how many were retries of
	// transient failures, and the backoff slept between tries.
	HTTPAttempts int64
	HTTPRetries  int64
	RetryBackoff time.Duration
}

// String renders the breakdown the sweep CLIs print at end of run: the
// retry/local/cache counters plus one cells/s line per worker, in "# "
// comment form matching their other footers.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# fleet: %d chunks retried, %d cells run locally, %d cells from cache\n",
		s.ChunksRetried, s.LocalCells, s.CachedCells)
	fmt.Fprintf(&b, "# fleet: %d http attempts, %d retries, %s total backoff\n",
		s.HTTPAttempts, s.HTTPRetries, s.RetryBackoff.Round(time.Millisecond))
	for _, w := range s.Workers {
		status := "alive"
		if !w.Alive {
			status = "dead"
		}
		if w.Role != "" {
			status += " " + w.Role + " epoch=" + strconv.FormatUint(w.Epoch, 10)
		}
		fmt.Fprintf(&b, "# worker %s [%s]: %d cells in %d chunks (%.0f cells/s), %d dispatches (%d failed, %d straggler dups), latency %s..%s\n",
			w.URL, status, w.Cells, w.Chunks, w.CellsPerSec(),
			w.Dispatches, w.Failures, w.Stragglers,
			w.MinLat.Round(time.Millisecond), w.MaxLat.Round(time.Millisecond))
	}
	return b.String()
}

// Stats snapshots the fleet accounting.
func (f *Fleet) Stats() Stats {
	out := Stats{
		ChunksRetried: f.retried.Load(),
		LocalCells:    f.localCells.Load(),
		CachedCells:   f.cachedCells.Load(),
	}
	for _, w := range f.workers {
		cs := w.c.Stats()
		w.mu.Lock()
		out.Workers = append(out.Workers, WorkerStats{
			URL: w.url, Alive: w.alive, Role: w.role, Epoch: w.epoch,
			Chunks: w.chunks, Cells: w.cells, Busy: w.busy,
			Dispatches: w.dispatches, Failures: w.failures, Stragglers: w.stragglers,
			MinLat: w.minLat, MaxLat: w.maxLat, Client: cs,
		})
		w.mu.Unlock()
		out.HTTPAttempts += cs.Attempts
		out.HTTPRetries += cs.Retries
		out.RetryBackoff += cs.Backoff
	}
	return out
}
