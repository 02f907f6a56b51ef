package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"cliquelect/elect"
	"cliquelect/elect/client"
	"cliquelect/internal/distrib"
	"cliquelect/internal/resultcache"
)

// Fleet grids are what cmd/sweep -workers host,host sends for
// `-algo tradeoff -k 3 -ns 64,128 -seeds 32`: 64 small cells, sharded by
// distrib at its default chunk size, so the fleet's own work (partition,
// dispatch, /v1/chunk, merge) is a large share of each grid.
const (
	fleetWorkers   = 2
	fleetK         = 3
	fleetSeeds     = 32
	fleetGridCells = 2 * fleetSeeds
	// fleetSampleEvery: one grid in this many (by seeded draw) is re-run
	// locally after the window, up to fleetSamples of them.
	fleetSampleEvery = 8
	fleetSamples     = 16
)

var fleetNs = []int{64, 128}

// grids runs fleet grids through one distrib.Fleet: the part of
// fleet-sweep the serve workloads reuse for their distrib probe.
type grids struct {
	seed   uint64
	spec   elect.Spec
	params elect.Params
	fleet  *distrib.Fleet
	runner elect.RemoteRunner
}

func newGrids(seed uint64, urls []string, copts []client.ClientOption) (*grids, error) {
	spec, err := elect.Lookup("tradeoff")
	if err != nil {
		return nil, err
	}
	f, err := distrib.New(distrib.Config{Workers: urls, ClientOptions: copts})
	if err != nil {
		return nil, err
	}
	// As in cmd/sweep: the wire options spell out every parameter the
	// local options carry, so a remote cell is byte-identical to a local one.
	p := elect.DefaultParams()
	p.K = fleetK
	wire := client.Options{Params: &client.ParamSpec{K: &p.K, D: &p.D, G: &p.G, Eps: &p.Eps}}
	return &grids{seed: seed, spec: spec, params: p, fleet: f, runner: f.Runner(wire)}, nil
}

// batch is grid g: fresh seeds, so no worker has any of its cells cached.
func (g *grids) batch(i int, remote bool) elect.Batch {
	b := elect.Batch{
		Ns:      fleetNs,
		Seeds:   elect.Seeds(seedBase(g.seed, streamFleet)+uint64(i)*fleetSeeds, fleetSeeds),
		Options: []elect.Option{elect.WithParams(g.params)},
	}
	if remote {
		b.Remote = g.runner
	}
	return b
}

// run dispatches grid i and checks its shape and every cell's validity.
func (g *grids) run(i int) (*elect.BatchResult, bool) {
	br, err := elect.RunMany(g.spec, g.batch(i, true))
	if err != nil || len(br.Runs) != fleetGridCells {
		return br, false
	}
	for _, r := range br.Runs {
		if !r.OK {
			return br, false
		}
	}
	return br, true
}

// fleetSweep: one caller runs grid after grid through a distrib.Fleet over
// two in-process electd workers.
type fleetSweep struct {
	cfg     config
	workers []*daemon
	g       *grids
	tt      *timingTransport // traced runs only

	stats0 distrib.Stats
	cache0 []resultcache.Stats
	bad    []string
	// statsT, tracedDelta and cacheT cover the traced window: the fleet
	// snapshot at its start and its accounting over it, and each worker
	// cache's counters at its start.
	statsT      distrib.Stats
	tracedDelta fleetDelta
	cacheT      []resultcache.Stats

	mu      sync.Mutex
	samples map[int][]byte // sampled grid -> EncodeBatchResult bytes
	spans   []interval     // traced grids
	traced  bool
}

func newFleetSweep(cfg config) workload {
	return &fleetSweep{cfg: cfg, samples: map[int][]byte{}}
}

func (f *fleetSweep) callers() int     { return 1 }
func (f *fleetSweep) cells() int       { return fleetGridCells }
func (f *fleetSweep) tailPct() float64 { return 90 }
func (f *fleetSweep) warmOps() int     { return 8 }

// setup starts the workers and probes them, as cmd/sweep's first grid
// would.
func (f *fleetSweep) setup() error {
	var urls []string
	for w := 0; w < fleetWorkers; w++ {
		d, err := startDaemon(f.cfg.trace)
		if err != nil {
			return err
		}
		f.workers = append(f.workers, d)
		urls = append(urls, d.url)
	}
	var copts []client.ClientOption
	if f.cfg.trace {
		f.tt = &timingTransport{next: http.DefaultTransport}
		copts = append(copts, client.WithHTTPClient(&http.Client{Transport: f.tt}))
	}
	var err error
	if f.g, err = newGrids(f.cfg.seed, urls, copts); err != nil {
		return err
	}
	if alive := f.g.fleet.Probe(context.Background()); alive != fleetWorkers {
		return fmt.Errorf("fleet probe: %d of %d workers alive", alive, fleetWorkers)
	}
	return nil
}

func (f *fleetSweep) op(_, i int) (time.Duration, bool) {
	t0 := time.Now()
	br, ok := f.g.run(i)
	t1 := time.Now()
	if !ok {
		f.mu.Lock()
		f.bad = append(f.bad, fmt.Sprintf("grid %d failed or did not have %d valid cells", i, fleetGridCells))
		f.mu.Unlock()
	}
	if f.traced {
		f.mu.Lock()
		f.spans = append(f.spans, interval{start: t0, end: t1})
		f.mu.Unlock()
	}
	if ok && draw(f.cfg.seed, streamSample, i)%fleetSampleEvery == 0 && f.sampleCount() < fleetSamples {
		b, err := elect.EncodeBatchResult(br)
		if err != nil {
			return t1.Sub(t0), false
		}
		f.mu.Lock()
		f.samples[i] = b
		f.mu.Unlock()
	}
	return t1.Sub(t0), ok
}

func (f *fleetSweep) sampleCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.samples)
}

func (f *fleetSweep) begin() {
	f.stats0 = f.g.fleet.Stats()
	f.cache0 = nil
	for _, d := range f.workers {
		f.cache0 = append(f.cache0, d.cache.Stats())
	}
}

// fleetDelta is the fleet's accounting over the window.
type fleetDelta struct {
	retried, local, cached, attempts, retries, chunks int64
	busy                                              time.Duration
}

func deltaStats(a, b distrib.Stats) fleetDelta {
	d := fleetDelta{
		retried: b.ChunksRetried - a.ChunksRetried, local: b.LocalCells - a.LocalCells,
		cached: b.CachedCells - a.CachedCells, attempts: b.HTTPAttempts - a.HTTPAttempts,
		retries: b.HTTPRetries - a.HTTPRetries,
	}
	for i := range b.Workers {
		d.chunks += b.Workers[i].Chunks - a.Workers[i].Chunks
		d.busy += b.Workers[i].Busy - a.Workers[i].Busy
	}
	return d
}

func (f *fleetSweep) check(ops int) []string {
	out := append([]string(nil), f.bad...)
	d := deltaStats(f.stats0, f.g.fleet.Stats())
	if d.retried != 0 || d.local != 0 || d.cached != 0 || d.retries != 0 {
		out = append(out, fmt.Sprintf("fleet drifted: %d chunks retried, %d cells run locally, %d cells from cache, %d client retries", d.retried, d.local, d.cached, d.retries))
	}
	for w, dm := range f.workers {
		if hits := dm.cache.Stats().Hits - f.cache0[w].Hits; hits != 0 {
			out = append(out, fmt.Sprintf("worker %d served %d cells from its cache; every grid must be fresh", w, hits))
		}
	}
	return out
}

// verify runs each sampled grid locally and compares the merged bytes.
func (f *fleetSweep) verify(_, _ int) (int, error) {
	failed := 0
	for _, i := range sortedKeys(f.samples) {
		br, err := elect.RunMany(f.g.spec, f.g.batch(i, false))
		if err != nil {
			return 0, err
		}
		b, err := elect.EncodeBatchResult(br)
		if err != nil || !bytes.Equal(b, f.samples[i]) {
			failed++
		}
	}
	return failed, nil
}

func (f *fleetSweep) traceOn() {
	f.statsT = f.g.fleet.Stats()
	f.cacheT = nil
	for _, d := range f.workers {
		f.cacheT = append(f.cacheT, d.cache.Stats())
	}
	f.traced = true
	f.tt.on.Store(true)
	for _, d := range f.workers {
		d.rec.on.Store(true)
	}
}

func (f *fleetSweep) traceOff() {
	for _, d := range f.workers {
		d.rec.on.Store(false)
	}
	f.tt.on.Store(false)
	f.traced = false
	f.tracedDelta = deltaStats(f.statsT, f.g.fleet.Stats())
}

func (f *fleetSweep) close() error {
	var first error
	for _, d := range f.workers {
		if err := d.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
