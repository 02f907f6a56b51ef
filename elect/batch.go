package elect

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cliquelect/internal/stats"
)

// ErrCanceled is returned by RunMany when its Batch.Cancel channel closes
// before every run was dispatched.
var ErrCanceled = errors.New("elect: batch canceled")

// RemoteRunner executes a whole batch grid somewhere other than this
// process; internal/distrib implements it over a fleet of electd workers.
// RunGrid receives the defaulted grid axes plus the batch (for Options,
// Topos, Cache, OnResult and Cancel) and must return one Result per cell in
// the canonical topo-major, size-major, seed-minor order — each
// byte-identical on the wire codec to what a local Run of that
// (topo, n, seed) cell would produce, which the determinism contract
// guarantees whatever machine computed it. A runner with no reachable
// worker runs the cells locally itself. A closed Batch.Cancel must surface
// as ErrCanceled; any other error aborts the batch.
type RemoteRunner interface {
	RunGrid(spec Spec, ns []int, seeds []uint64, b *Batch) ([]Result, error)
}

// Seeds returns count consecutive seeds starting at base — the usual seed
// list for a Batch.
func Seeds(base uint64, count int) []uint64 {
	out := make([]uint64, count)
	for i := range out {
		out[i] = base + uint64(i)
	}
	return out
}

// Batch describes a fan-out of one spec across topologies, network sizes
// and seeds. Every (topo, n, seed) cell becomes one independent Run.
type Batch struct {
	// Ns lists the network sizes to sweep; empty means {64}.
	Ns []int
	// Seeds lists the seeds run at every size; empty means {1}.
	Seeds []uint64
	// Topos lists topology specs (see WithTopology) swept as the outermost
	// grid axis; empty means the single default clique, which keeps the grid
	// — and every fingerprint in it — identical to a pre-topology batch.
	Topos []string
	// Options is the shared configuration applied to every run (parameters,
	// wake policy, delays, engine, budget). WithN and WithSeed values set
	// here are overridden by the batch's own Ns and Seeds.
	Options []Option
	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int
	// Cache, when non-nil, routes every run through RunCached: deterministic
	// (n, seed) cells that were computed before — by any Run, RunMany or
	// electd job sharing the cache — are replayed from their stored bytes
	// instead of re-executed. Uncacheable runs execute normally.
	Cache Cache
	// OnResult, when non-nil, is called once per completed run with the
	// number of runs finished so far and the batch total. Calls arrive from
	// the worker goroutines (at most one at a time per worker, but
	// concurrently across workers), so the callback must be cheap and
	// thread-safe; done is monotone across the calls taken together but
	// individual calls may arrive out of order.
	OnResult func(done, total int)
	// Cancel, when non-nil, aborts the batch as soon as the channel is
	// closed: in-flight runs finish, queued ones are never dispatched, and
	// RunMany returns ErrCanceled.
	Cancel <-chan struct{}
	// Remote, when non-nil, dispatches the grid through a remote runner (a
	// distrib fleet of electd workers) instead of the local executor; results
	// are byte-identical either way. The runner executes whatever no worker
	// can take in-process, so a configured-but-unreachable fleet degrades to
	// local execution.
	Remote RemoteRunner
}

// Summary holds summary statistics of one measurement across a batch.
type Summary struct {
	Mean   float64 `json:"mean"`
	Std    float64 `json:"std"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Median float64 `json:"median"`
}

func newSummary(xs []float64) Summary {
	s := stats.Summarize(xs)
	return Summary{Mean: s.Mean, Std: s.Std, Min: s.Min, Max: s.Max, Median: s.Median}
}

// Aggregate summarizes all runs of one (topology, network size) pair.
type Aggregate struct {
	// Topo is the canonical topology spec of the aggregated cells; empty on
	// the default clique (so clique-only batches serialize exactly as before
	// the topology axis existed).
	Topo string `json:"topo,omitempty"`
	N    int    `json:"n"`
	// Runs is the number of seeds executed at this size.
	Runs int `json:"runs"`
	// Successes counts runs that elected a valid unique leader (OK; under
	// WithFaults, restricted to surviving nodes).
	Successes int `json:"successes"`
	// SuccessRate is Successes/Runs — the election-success rate, the headline
	// resilience measure under fault injection.
	SuccessRate float64 `json:"success_rate"`
	// Messages summarizes the message complexity across seeds.
	Messages Summary `json:"messages"`
	// Time summarizes the time complexity across seeds: rounds on the sync
	// engine, time units on the async simulator, zero on the live engine.
	Time Summary `json:"time"`
	// MeanCrashed, MeanDropped and MeanDuplicated are the mean fault-injection
	// counters per run (all zero without WithFaults).
	MeanCrashed    float64 `json:"mean_crashed"`
	MeanDropped    float64 `json:"mean_dropped"`
	MeanDuplicated float64 `json:"mean_duplicated"`
}

// BatchResult is the outcome of one RunMany. Like Result, its json tags are
// the stable v1 wire form (see EncodeBatchResult).
type BatchResult struct {
	// Runs holds every per-cell Result in deterministic order: topo-major,
	// size-major, seed-minor (Runs[(t*len(Ns)+i)*len(Seeds)+j] is topology
	// Topos[t] at size Ns[i] with seed Seeds[j]; without Topos the topology
	// axis has one implicit clique entry and the order is the historical
	// size-major, seed-minor one).
	Runs []Result `json:"runs"`
	// Aggregates holds one Aggregate per (topo, size), in grid order.
	Aggregates []Aggregate `json:"aggregates"`
}

// RunMany fans the batch's (size, seed) grid across a sharded parallel
// executor and returns every per-seed result plus per-size aggregates.
//
// The grid of cells is split into one contiguous shard per worker; each
// worker drains its own shard with a single atomic claim per cell and then
// steals from the other shards, so the executor stays busy under skewed
// per-cell cost (large sizes at the end of a sweep) without a dispatcher
// goroutine or channel handoff per cell. Each cell is an independent Run
// whose randomness derives entirely from its own (n, seed) pair — the
// per-shard claim order never feeds any RNG — so on the deterministic
// engines the results are byte-identical whatever the worker count:
// RunMany(…, Workers: 1), which claims the cells in grid order, and
// RunMany(…, Workers: 8) produce the very same BatchResult, and a warm
// Batch.Cache replays the very same bytes a cold one computes (the cache
// fingerprints depend on this, and TestRunManyParallelMatchesSerial
// asserts it). A failed run fails the batch once every claimed cell has
// finished; the error names the first failed cell in grid order.
func RunMany(spec Spec, b Batch) (*BatchResult, error) {
	ns, seeds := defaultAxes(b.Ns, b.Seeds)
	total := GridSize(ns, seeds, b.Topos)
	if b.Remote != nil {
		runs, err := b.Remote.RunGrid(spec, ns, seeds, &b)
		if err != nil {
			return nil, err
		}
		if len(runs) != total {
			return nil, fmt.Errorf("elect: remote runner returned %d results for a %d-cell grid",
				len(runs), total)
		}
		return assembleBatch(ns, seeds, b.Topos, runs), nil
	}
	runs, _, err := runCells(spec, b, ns, seeds, 0, total)
	if err != nil {
		return nil, err
	}
	return assembleBatch(ns, seeds, b.Topos, runs), nil
}

// defaultAxes applies the Batch axis defaults: {64} sizes, {1} seeds.
func defaultAxes(ns []int, seeds []uint64) ([]int, []uint64) {
	if len(ns) == 0 {
		ns = []int{64}
	}
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	return ns, seeds
}

// GridSize returns the number of cells in the canonical batch grid over the
// given axes: len(topos)·len(ns)·len(seeds), with each empty axis counting
// as one value — the implicit clique, and RunMany's {64} sizes and {1}
// seeds. Distributed dispatch (internal/distrib), the jobs layer's batch
// progress and ValidRange all size grids with this.
func GridSize(ns []int, seeds []uint64, topos []string) int {
	return max(len(topos), 1) * max(len(ns), 1) * max(len(seeds), 1)
}

// CellOptions returns the Run options for cell idx of the batch's canonical
// topo-major, size-major, seed-minor grid over the (already defaulted) ns
// and seeds axes: the batch's shared Options followed by the cell's WithN,
// WithSeed and — only when the batch sweeps topologies — WithTopology. It
// is exported so remote executors (internal/distrib) reproduce exactly the
// cells a local RunMany would run.
func CellOptions(b *Batch, ns []int, seeds []uint64, idx int) []Option {
	topo, n, seed := cellAt(b, ns, seeds, idx)
	opts := make([]Option, 0, len(b.Options)+3)
	opts = append(opts, b.Options...)
	opts = append(opts, WithN(n), WithSeed(seed))
	if len(b.Topos) > 0 {
		opts = append(opts, WithTopology(topo))
	}
	return opts
}

// cellAt returns the topology (empty when the batch sweeps none), size and
// seed of cell idx of the canonical grid over the defaulted ns and seeds.
func cellAt(b *Batch, ns []int, seeds []uint64, idx int) (topo string, n int, seed uint64) {
	inner := len(ns) * len(seeds)
	if len(b.Topos) > 0 {
		topo = b.Topos[idx/inner]
	}
	return topo, ns[idx%inner/len(seeds)], seeds[idx%len(seeds)]
}

// ValidRange reports whether [start, start+count) is a non-empty cell range
// inside the batch's canonical grid, each empty axis counting as one value
// as in GridSize. It is the one range rule: RunRange, the jobs layer's
// chunk submission and electd's /v1/chunk all check ranges with it.
func ValidRange(b *Batch, start, count int) error {
	total := GridSize(b.Ns, b.Seeds, b.Topos)
	if start < 0 || count < 1 || count > total-start {
		return fmt.Errorf("elect: cell range [%d, %d) outside the %d-cell grid",
			start, start+count, total)
	}
	return nil
}

// Limits bounds what one request may ask for, so that a server can refuse
// it before it allocates anything of its size. A zero field sets no bound.
type Limits struct {
	// MaxN caps every network size.
	MaxN int
	// MaxCells caps the number of runs.
	MaxCells int
}

// Admit reports whether a request over the network sizes ns and the cell
// count that is the product of axes is within the limits. A run passes no
// axes (one cell), a batch its grid's axes as counts (so that a compact
// seed range is checked before Seeds builds it), a chunk its range's
// length. Each axis counts as at least one, as GridSize counts an empty
// axis, and the product is checked without multiplying anything that
// could wrap.
func (l Limits) Admit(ns []int, axes ...int) error {
	if l.MaxN > 0 {
		for _, n := range ns {
			if n > l.MaxN {
				return fmt.Errorf("elect: n = %d exceeds the limit of %d", n, l.MaxN)
			}
		}
	}
	if l.MaxCells > 0 {
		cells := 1
		for _, k := range axes {
			if k = max(k, 1); k > l.MaxCells/cells {
				return fmt.Errorf("elect: the request asks for more than %d cells", l.MaxCells)
			}
			cells *= k
		}
	}
	return nil
}

// CheckRange reports whether results answer the cell range starting at
// start, the counterpart of RunRange: each result must carry the spec, n,
// seed and canonical topology that its cell's CellOptions resolve to,
// whether the topology comes from the Topos axis or from the batch's shared
// Options. Remote executors (internal/distrib) check every worker answer
// with it before merging or caching it.
func CheckRange(spec Spec, b *Batch, ns []int, seeds []uint64, start int, results []Result) error {
	for i, res := range results {
		idx := start + i
		cfg, err := resolve(spec, CellOptions(b, ns, seeds, idx))
		if err != nil {
			return err
		}
		if res.Algorithm != spec.Name || res.N != cfg.n || res.Seed != cfg.seed || res.Topo != cfg.topo {
			return fmt.Errorf("elect: cell %d answered with %s n=%d seed=%d topo=%q, want %s n=%d seed=%d topo=%q",
				idx, res.Algorithm, res.N, res.Seed, res.Topo, spec.Name, cfg.n, cfg.seed, cfg.topo)
		}
	}
	return nil
}

// RunRange executes the contiguous cell range [start, start+count) of the
// batch's canonical grid — the same topo-major, size-major, seed-minor
// order RunMany uses — and returns the per-cell Results in range order,
// with each cell's wire bytes as RunCached returns them through b.Cache:
// exactly what EncodeResult writes for the cell's Result, for every cell,
// cached or not. The bytes must not be modified. It is the worker-side
// half of distributed dispatch: a fleet scheduler partitions the grid into
// ranges, each electd worker executes its ranges with RunRange, and the
// merged grid is byte-identical to one local RunMany because every cell is
// a pure function of its own (topo, n, seed). Workers, Cache, OnResult and
// Cancel are honored as in RunMany (OnResult's done/total are relative to
// the range); Remote is ignored — ranges always execute locally. A range
// that fails ValidRange is an error.
func RunRange(spec Spec, b Batch, start, count int) ([]Result, [][]byte, error) {
	if err := ValidRange(&b, start, count); err != nil {
		return nil, nil, err
	}
	ns, seeds := defaultAxes(b.Ns, b.Seeds)
	return runCells(spec, b, ns, seeds, start, count)
}

// runCells is the local executor shared by RunMany and RunRange: it runs
// cells [start, start+count) of the ns × seeds grid through runSharded and
// returns their Results and wire bytes in cell order, both from runCached,
// the cell function behind RunCached.
func runCells(spec Spec, b Batch, ns []int, seeds []uint64, start, count int) ([]Result, [][]byte, error) {
	workers := b.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, count)

	runs := make([]Result, count)
	wires := make([][]byte, count)
	errs := make([]error, count)
	runCell := func(i int) {
		wires[i], _, errs[i] = runCached(b.Cache, spec, CellOptions(&b, ns, seeds, start+i), &runs[i])
	}
	canceled := func() bool {
		select {
		case <-b.Cancel:
			return true
		default:
			return false
		}
	}
	if runSharded(count, workers, runCell, canceled, b.OnResult) < count {
		return nil, nil, ErrCanceled
	}

	for i, err := range errs {
		if err != nil {
			topo, n, seed := cellAt(&b, ns, seeds, start+i)
			if len(b.Topos) > 0 {
				return nil, nil, fmt.Errorf("elect: run topo=%q n=%d seed=%d: %w", topo, n, seed, err)
			}
			return nil, nil, fmt.Errorf("elect: run n=%d seed=%d: %w", n, seed, err)
		}
	}
	return runs, wires, nil
}

// runSharded is the cell executor: cells [0, total) are split into one
// contiguous shard per worker, each worker drains its own shard via an
// atomic claim counter and then steals from the other shards in ring
// order; a single worker thus claims the cells in grid order. It returns the number of cells claimed — total unless the
// cancel probe fired while cells were still unclaimed.
func runSharded(total, workers int, runCell func(int), canceled func() bool, onResult func(done, total int)) int {
	// bounds[w] .. bounds[w+1] is shard w; claim[w] is its next free cell.
	bounds := make([]int64, workers+1)
	for w := 1; w <= workers; w++ {
		bounds[w] = int64(w * total / workers)
	}
	claim := make([]atomic.Int64, workers)
	for w := range claim {
		claim[w].Store(bounds[w])
	}
	var completed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < workers; s++ {
				shard := (w + s) % workers
				for {
					if canceled() {
						return
					}
					idx := claim[shard].Add(1) - 1
					if idx >= bounds[shard+1] {
						break // shard drained; move on to stealing
					}
					runCell(int(idx))
					if onResult != nil {
						onResult(int(completed.Add(1)), total)
					} else {
						completed.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	return int(completed.Load())
}

// assembleBatch computes the per-(topo, size) aggregates over the completed
// grid.
func assembleBatch(ns []int, seeds []uint64, topos []string, runs []Result) *BatchResult {
	tcount := len(topos)
	if tcount == 0 {
		tcount = 1
	}
	out := &BatchResult{Runs: runs, Aggregates: make([]Aggregate, 0, tcount*len(ns))}
	for g := 0; g < tcount*len(ns); g++ {
		n := ns[g%len(ns)]
		base := g * len(seeds)
		// Topo comes from the first run of the group: Run stores the canonical
		// spec there ("" on the clique), so the aggregate label is normalized
		// whatever alias the batch used.
		agg := Aggregate{Topo: runs[base].Topo, N: n, Runs: len(seeds)}
		msgs := make([]float64, 0, len(seeds))
		times := make([]float64, 0, len(seeds))
		for j := range seeds {
			r := runs[base+j]
			if r.OK {
				agg.Successes++
			}
			msgs = append(msgs, float64(r.Messages))
			if r.Engine == EngineSync {
				times = append(times, float64(r.Rounds))
			} else {
				times = append(times, r.TimeUnits)
			}
			agg.MeanCrashed += float64(len(r.Crashed))
			agg.MeanDropped += float64(r.Dropped)
			agg.MeanDuplicated += float64(r.Duplicated)
		}
		agg.SuccessRate = float64(agg.Successes) / float64(agg.Runs)
		agg.MeanCrashed /= float64(agg.Runs)
		agg.MeanDropped /= float64(agg.Runs)
		agg.MeanDuplicated /= float64(agg.Runs)
		agg.Messages = newSummary(msgs)
		agg.Time = newSummary(times)
		out.Aggregates = append(out.Aggregates, agg)
	}
	return out
}
