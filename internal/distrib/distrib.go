// Package distrib is the distributed dispatch fabric: it shards a batch
// grid into deterministic cell chunks and farms them out to a fleet of
// remote electd workers over the /v1/chunk wire call, merging the results
// into exactly the grid a local elect.RunMany would produce.
//
// A Fleet is a registry of workers with liveness and in-flight tracking.
// A worker is up from a successful /healthz probe until a chunk dispatched
// to it fails; each grid probes only the workers marked down, so a grid
// over a healthy fleet sends no probe at all. Runner binds a Fleet to the
// wire-form options of one sweep configuration and yields an
// elect.RemoteRunner, so dispatch plugs into the public API as
// Batch.Remote:
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
// stored back — as the canonical bytes the worker sent, once checked — and
// so re-dispatched or re-run cells are free.
//
// Partition is a pure function of the grid axes, never of the fleet, so a
// batch shards into the same chunks on any number of workers. Consecutive
// cells join a chunk until their summed weight n·⌈log₂ n⌉ (a
// spec-independent stand-in for a cell's work) reaches a fixed budget:
// cheap cells share a round trip, and a cell heavy enough to reach the
// budget alone travels alone. Only a chunk the
// coordinator's cache holds whole is merged without dispatch; a chunk with
// some cells cached goes out whole, and the worker's cache answers those.
package distrib

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
	cfg      Config
	straggle time.Duration // straggleAfter; tests shorten it
	workers  []*worker
	events   atomic.Pointer[obs.EventLog] // swappable journal; nil Load is a no-op Emit

	retried     atomic.Int64 // chunks re-dispatched (failover + stragglers)
	localCells  atomic.Int64 // cells executed locally because no worker was alive
	cachedCells atomic.Int64 // cells resolved from the fingerprint cache, never dispatched
}

// worker is one registered electd daemon and its live accounting.
type worker struct {
	url string
	c   *client.Client

	mu       sync.Mutex
	alive    bool // set by a successful probe, cleared by a failed chunk
	inflight int  // chunks currently dispatched to this worker

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

// probeTimeout bounds each health probe.
const probeTimeout = 2 * time.Second

// straggleAfter is how long a chunk may be in flight before an idle worker
// is given a duplicate copy (first answer wins).
const straggleAfter = 30 * time.Second

// New builds a Fleet over the given worker URLs. No probing happens here:
// every worker starts down, so the first RunGrid (or an explicit Probe)
// probes them all.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("distrib: no workers configured")
	}
	copts := cfg.ClientOptions
	if cfg.Spans != nil {
		// Worker clients share the coordinator's collector, so their
		// request/attempt spans land in the same trace store as the
		// dispatch spans.
		copts = append(copts[:len(copts):len(copts)], client.WithSpanCollector(cfg.Spans))
	}
	f := &Fleet{cfg: cfg, straggle: straggleAfter}
	for _, raw := range cfg.Workers {
		url := NormalizeURL(raw)
		if url == "" {
			return nil, fmt.Errorf("distrib: empty worker URL in %v", cfg.Workers)
		}
		// Two spellings of one daemon would register it twice and silently
		// halve the fleet.
		if slices.ContainsFunc(f.workers, func(w *worker) bool { return w.url == url }) {
			return nil, fmt.Errorf("distrib: worker %s listed twice in %v", url, cfg.Workers)
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

// SetEvents journals fleet scheduling events (worker liveness transitions,
// chunk failovers, straggler duplicates, local fallbacks) into log; without
// it the fleet journals nothing. The journal is the fleet's only log. The
// service wires its own journal into the HA fleet it builds. Safe to call
// while grids are in flight.
func (f *Fleet) SetEvents(log *obs.EventLog) { f.events.Store(log) }

// ev is the current journal — nil when journaling is off, which makes every
// Emit a single-branch no-op.
func (f *Fleet) ev() *obs.EventLog { return f.events.Load() }

// Probe health-checks, in parallel, every worker not known to be up, and
// returns how many are up. A worker that answers is up until a chunk
// dispatched to it fails (endChunk); one that does not stays down until a
// later Probe. A worker that dies while marked up is found by its next
// chunk: the client retries, then the chunk fails over.
func (f *Fleet) Probe(ctx context.Context) int {
	var wg sync.WaitGroup
	for _, w := range f.workers {
		if w.up() {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, probeTimeout)
			defer cancel()
			if h, err := w.c.Health(pctx); err != nil || !h.OK {
				return
			}
			w.mu.Lock()
			revived := !w.alive
			w.alive = true
			w.mu.Unlock()
			if revived {
				f.ev().Emit("worker.up", "url", w.url)
			}
		}()
	}
	wg.Wait()
	alive := 0
	for _, w := range f.workers {
		if w.up() {
			alive++
		}
	}
	return alive
}

// up reports whether w is marked up.
func (w *worker) up() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.alive
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
	done  bool
	since time.Time // first dispatch, for straggler detection
	on    []*worker // workers this chunk is in flight on: two while a straggler duplicate runs
}

// completion is one dispatch attempt's outcome, delivered to the scheduler.
type completion struct {
	ci      int
	w       *worker
	results []elect.Result
	wire    [][]byte // the results' checked wire bytes (client.ChunkResponse.Wire)
	dur     time.Duration
	err     error
}

// grid is one RunGrid call: its inputs, the partition and cache keys plan
// computes, and the scheduler's state, which only the goroutine running
// schedule touches. Attempt goroutines read the inputs and the partition
// and report back through comp.
type grid struct {
	f     *Fleet
	spec  elect.Spec
	ns    []int
	seeds []uint64
	b     *elect.Batch
	wopts client.Options
	ctx   context.Context // canceled when runGrid returns, aborting attempts still in flight
	sc    obs.SpanContext // the grid span; invalid when untraced
	fence uint64          // the fencing token every chunk of this grid carries

	chunks []Chunk
	keys   []string // per-cell cache keys; nil without a cache, "" for an uncacheable cell
	runs   []elect.Result

	states      []chunkState
	pending     []int // chunks neither merged nor in flight
	outstanding int   // attempts in flight, duplicates of merged chunks included
	merged      int   // cells merged; the grid is done when it reaches len(runs)
	comp        chan completion
}

// runGrid probes the workers marked down and runs the grid's stages: plan,
// then schedule, which drives one attempt per dispatch and merges each
// chunk as its first answer arrives.
func (f *Fleet) runGrid(spec elect.Spec, ns []int, seeds []uint64, b *elect.Batch, wopts client.Options) (results []elect.Result, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := &grid{f: f, spec: spec, ns: ns, seeds: seeds, b: b, wopts: wopts, ctx: ctx,
		comp: make(chan completion)}
	// Trace the grid when a collector or an inherited root is configured.
	// The grid span context also parents every chunk.dispatch and, through
	// the traced worker clients, the whole remote subtree.
	if traced := f.cfg.Spans != nil || f.cfg.Root.Valid(); traced {
		g.sc = f.cfg.Root.Child()
		gridStart := time.Now()
		defer func() {
			attrs := map[string]string{
				"spec":  spec.Name,
				"cells": strconv.Itoa(len(g.runs)),
			}
			if err != nil {
				attrs["error"] = err.Error()
			}
			f.cfg.Spans.Add(obs.NewSpan(g.sc, f.cfg.Root.Span, "grid", "sweep",
				gridStart, time.Since(gridStart), attrs))
		}()
	}
	// A fleet that is down at grid start takes the same path as one that
	// dies mid-grid: the scheduler finds no live worker and runs each chunk
	// locally.
	f.Probe(ctx)
	// The fencing token is captured once per grid: every chunk of this grid
	// carries the same token, and the scheduler aborts if the local token
	// moves on mid-grid (this dispatcher was deposed).
	if f.cfg.Fence != nil {
		g.fence = f.cfg.Fence()
	}
	g.plan()
	if err := g.schedule(); err != nil {
		return nil, err
	}
	return g.runs, nil
}

// plan partitions the grid, computes every cell's cache key, and merges
// each chunk the cache holds whole. The other chunks are left pending.
// Uncacheable configurations (adaptive adversaries) get empty keys and
// always dispatch.
func (g *grid) plan() {
	total := elect.GridSize(g.ns, g.seeds, g.b.Topos)
	g.chunks = Partition(g.ns, g.seeds, g.b.Topos)
	g.runs = make([]elect.Result, total)
	g.states = make([]chunkState, len(g.chunks))
	if g.b.Cache != nil {
		g.keys = make([]string, total)
		for idx := range g.keys {
			if key, err := elect.Fingerprint(g.spec, elect.CellOptions(g.b, g.ns, g.seeds, idx)...); err == nil {
				g.keys[idx] = key
			}
		}
	}
	g.pending = make([]int, 0, len(g.chunks))
	for ci, ch := range g.chunks {
		if results, ok := g.fromCache(ch); ok {
			g.f.cachedCells.Add(int64(ch.Count))
			g.merge(ci, results, nil, false)
			continue
		}
		g.pending = append(g.pending, ci)
	}
}

// fromCache resolves a whole chunk from the fingerprint cache, or reports
// false without side effects (partial hits still dispatch: the worker's own
// cache covers its cells).
func (g *grid) fromCache(ch Chunk) ([]elect.Result, bool) {
	if g.keys == nil {
		return nil, false
	}
	results := make([]elect.Result, ch.Count)
	for i := range results {
		key := g.keys[ch.Start+i]
		if key == "" {
			return nil, false
		}
		data, ok := g.b.Cache.Get(key)
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

// schedule runs the dispatch loop until every chunk is merged. Each pass
// checks the fence and the batch's Cancel, dispatches every pending chunk a
// worker can take, and runs one chunk locally when nothing is in flight
// (every worker is dead or saturated to zero). Otherwise it waits for an
// attempt to finish, failing its chunk over on a transient error, or for
// the straggler tick.
func (g *grid) schedule() error {
	f, chunks := g.f, g.chunks
	tick := time.NewTicker(max(f.straggle/4, 10*time.Millisecond))
	defer tick.Stop()
	for g.merged < len(g.runs) {
		if f.cfg.Fence != nil {
			if now := f.cfg.Fence(); now != g.fence {
				return fmt.Errorf("distrib: fencing token advanced %d → %d mid-grid: %w",
					g.fence, now, ErrFenced)
			}
		}
		select {
		case <-g.b.Cancel:
			return elect.ErrCanceled
		default:
		}
		still := g.pending[:0]
		for _, ci := range g.pending {
			if !g.dispatch(ci) {
				still = append(still, ci)
			}
		}
		g.pending = still

		if g.outstanding == 0 {
			// Nothing in flight, so every unmerged chunk is pending: run the
			// next one in-process so the sweep still completes. Remote and
			// OnResult are cleared, since merge reports progress per cell.
			ci := g.pending[0]
			g.pending = g.pending[1:]
			ch := chunks[ci]
			f.ev().Emit("chunk.local", "start", strconv.Itoa(ch.Start), "count", strconv.Itoa(ch.Count))
			local := *g.b
			local.Ns, local.Seeds = g.ns, g.seeds
			local.Remote, local.OnResult = nil, nil
			results, _, err := elect.RunRange(g.spec, local, ch.Start, ch.Count)
			if err != nil {
				return err
			}
			f.localCells.Add(int64(ch.Count))
			// RunRange already stored the cells in the cache.
			g.merge(ci, results, nil, false)
			continue
		}

		select {
		case <-g.b.Cancel:
			return elect.ErrCanceled
		case c := <-g.comp:
			g.outstanding--
			st := &g.states[c.ci]
			st.on = slices.DeleteFunc(st.on, func(w *worker) bool { return w == c.w })
			ch := chunks[c.ci]
			switch {
			case c.err != nil && fencedStatus(c.err):
				// A worker holds a newer epoch than this grid's token: we were
				// deposed, and the new coordinator owns the remaining work.
				return fmt.Errorf("distrib: chunk [%d, %d) on %s rejected (%v): %w",
					ch.Start, ch.End(), c.w.url, c.err, ErrFenced)
			case c.err != nil && definite(c.err):
				// The daemon answered: this configuration fails everywhere.
				return fmt.Errorf("distrib: chunk [%d, %d) on %s: %w",
					ch.Start, ch.End(), c.w.url, c.err)
			case c.err != nil:
				if !st.done && len(st.on) == 0 {
					f.retried.Add(1)
					f.ev().Emit("chunk.failover", "worker", c.w.url,
						"start", strconv.Itoa(ch.Start), "count", strconv.Itoa(ch.Count),
						"error", c.err.Error())
					g.pending = append(g.pending, c.ci)
				}
			case st.done:
				// A straggler's duplicate finished too; first answer won.
			default:
				g.merge(c.ci, c.results, c.wire, true)
			}
		case <-tick.C:
			for ci := range g.states {
				st := &g.states[ci]
				if st.done || len(st.on) != 1 || time.Since(st.since) < f.straggle {
					continue
				}
				if g.dispatch(ci) {
					f.retried.Add(1)
					f.ev().Emit("chunk.straggler",
						"start", strconv.Itoa(chunks[ci].Start),
						"count", strconv.Itoa(chunks[ci].Count),
						"inflight", time.Since(st.since).Round(time.Millisecond).String())
				}
			}
		}
	}
	return nil
}

// dispatch starts one attempt of chunk ci on the best worker not already
// running it, or reports false when no worker can take it.
func (g *grid) dispatch(ci int) bool {
	st := &g.states[ci]
	w := g.f.pickWorker(st.on)
	if w == nil {
		return false
	}
	dup := len(st.on) > 0
	st.on = append(st.on, w)
	if st.since.IsZero() {
		st.since = time.Now()
	}
	g.outstanding++
	go func() {
		c := g.attempt(ci, w, dup)
		select {
		case g.comp <- c:
		case <-g.ctx.Done():
		}
	}()
	return true
}

// attempt is one dispatch of chunk ci to w: it sends the request, checks
// the answer, records the chunk.dispatch span and settles the worker's
// accounting. It settles the accounting itself because runGrid may return
// with this attempt still in flight (a straggler race won elsewhere, an
// abort, a cancel), and a reusable Fleet must not leak the in-flight slot.
func (g *grid) attempt(ci int, w *worker, dup bool) completion {
	ch := g.chunks[ci]
	start := time.Now()
	ctx := g.ctx
	var sc obs.SpanContext
	if g.sc.Valid() {
		// One dispatch span per attempt; the worker client reads the
		// context and parents its request/attempt spans (and, via the
		// traceparent header, the worker daemon's subtree) under it.
		sc = g.sc.Child()
		ctx = obs.ContextWithSpan(ctx, sc)
	}
	resp, err := w.c.Chunk(ctx, client.ChunkRequest{
		Spec: g.spec.Name, Ns: g.ns, Seeds: g.seeds, Topos: g.b.Topos,
		Start: ch.Start, Count: ch.Count, Fence: g.fence, Options: g.wopts,
	})
	c := completion{ci: ci, w: w, dur: time.Since(start), err: err}
	if err == nil {
		if len(resp.Results) != ch.Count {
			c.err = fmt.Errorf("distrib: worker %s returned %d results for a %d-cell chunk",
				w.url, len(resp.Results), ch.Count)
		} else if err := elect.CheckRange(g.spec, g.b, g.ns, g.seeds, ch.Start, resp.Results); err != nil {
			c.err = fmt.Errorf("distrib: worker %s: %w", w.url, err)
		} else {
			c.results, c.wire = resp.Results, resp.Wire
		}
	}
	if sc.Valid() {
		attrs := map[string]string{
			"worker": w.url,
			"start":  strconv.Itoa(ch.Start),
			"count":  strconv.Itoa(ch.Count),
		}
		if dup {
			attrs["dup"] = "true"
		}
		if c.err != nil {
			attrs["error"] = c.err.Error()
		}
		g.f.cfg.Spans.Add(obs.NewSpan(sc, g.sc.Span, "chunk.dispatch", "sweep", start, c.dur, attrs))
		if err == nil {
			// Merge the worker-side view (serve/queue/exec) into the
			// coordinator's trace.
			g.f.cfg.Spans.AddAll(resp.Spans)
		}
	}
	if w.endChunk(c.err == nil, ch.Count, c.dur) {
		g.f.ev().Emit("worker.down", "url", w.url, "error", c.err.Error())
	}
	return c
}

// merge places chunk ci's results in the grid and reports each cell to
// OnResult. store is true only for cells a worker computed: each goes into
// the cache as the bytes the worker sent, when client.Chunk kept them in
// wire (canonical, and checked by elect.CheckRange with their Result),
// else re-encoded. Cache-resolved chunks were just read from the cache,
// and local-fallback cells were already stored by RunRange, so re-Putting
// either would rewrite disk entries with the bytes they already hold.
func (g *grid) merge(ci int, results []elect.Result, wire [][]byte, store bool) {
	g.states[ci].done = true
	start := g.chunks[ci].Start
	for i, res := range results {
		idx := start + i
		g.runs[idx] = res
		if store && g.keys != nil && g.keys[idx] != "" {
			var data []byte
			var err error
			if wire != nil && wire[i] != nil {
				data = wire[i]
			} else {
				data, err = elect.EncodeResult(res)
			}
			if err == nil {
				g.b.Cache.Put(g.keys[idx], data)
			}
		}
		g.merged++
		if g.b.OnResult != nil {
			g.b.OnResult(g.merged, len(g.runs))
		}
	}
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
// chunks in flight (below maxInflight, ties to the first listed), skipping
// the workers the chunk already runs on (a straggler's duplicate must go
// somewhere new). It counts the dispatch on the worker it picks, as a
// straggler duplicate when on is non-empty. Returns nil when nobody
// qualifies.
func (f *Fleet) pickWorker(on []*worker) *worker {
	var best *worker
	bestInflight := 0
	for _, w := range f.workers {
		if slices.Contains(on, w) {
			continue
		}
		w.mu.Lock()
		alive, inflight := w.alive, w.inflight
		w.mu.Unlock()
		if !alive || inflight >= maxInflight {
			continue
		}
		if best == nil || inflight < bestInflight {
			best, bestInflight = w, inflight
		}
	}
	if best != nil {
		best.mu.Lock()
		best.inflight++
		best.dispatches++
		if len(on) > 0 {
			best.stragglers++
		}
		best.mu.Unlock()
	}
	return best
}

// endChunk settles a dispatch attempt: accounting on success, death on
// failure (the next grid's Probe revives a restarted daemon). Reports
// whether this failure is what killed the worker, so the caller can journal
// exactly one worker.down per death.
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

// Stats is the fleet-wide accounting cmd/sweep prints.
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

// String renders the breakdown cmd/sweep prints at end of run: the
// retry/local/cache counters plus one cells/s line per worker, in "# "
// comment form matching its other footers.
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
			URL: w.url, Alive: w.alive,
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
