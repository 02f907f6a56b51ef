// Command perfbench is the repository's serving benchmark. It builds the
// electd serving stack in process from its public constructors, drives one
// closed-loop workload through elect/client over loopback HTTP, checks every
// answer, and prints its metrics; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload serve-hot --seed 1 --seconds 20 --trace 0
//	perfbench --steady 10 --workload serve-hot --seconds 20
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// with the benchmark's own timing around every layer and reports the
// per-layer metrics instead. --steady N repeats a workload over N seeds and
// prints each metric's median, quartiles and spread against its bound in
// BENCHMARK.json. README.md says why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// setupReps is how many times a run builds and warms its stack; setup_s is
// the median, and only the last stack is measured.
const setupReps = 3

// deadline bounds a whole run, whatever the workload does: the benchmark
// must answer within three minutes.
const deadline = 170 * time.Second

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// workload is one traffic mix against one serving stack.
type workload interface {
	// callers is the number of closed-loop callers; tailPct the percentile
	// latency_tail_ms is read at.
	callers() int
	tailPct() float64
	// setup builds the stack and brings it to its timed state; warmOps
	// more operations then run before the timed window.
	setup() error
	warmOps() int
	// op performs operation i as caller c, returning its latency and
	// whether its answer checked out.
	op(c, i int) (time.Duration, bool)
	// cells is the number of elections one operation asks for.
	cells() int
	// begin snapshots the counters the mix checks read; check compares
	// them after ops operations and lists every way the realised mix
	// drifted from the workload's definition.
	begin()
	check(ops int) []string
	// verify re-checks answers after the window against in-process runs
	// and returns how many of the operations [first, next) it failed.
	verify(first, next int) (failed int, err error)
	// traceOn/traceOff bracket the traced window; layers then reports the
	// per-layer metrics of that window.
	traceOn()
	traceOff()
	layers(w window) (*layerReport, error)
	close() error
}

var workloads = map[string]func(config) workload{
	"serve-hot":   newServeHot,
	"serve-cold":  newServeCold,
	"fleet-sweep": newFleetSweep,
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		cfg    config
		trace  int
		steady int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload name: serve-hot, serve-cold or fleet-sweep")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.IntVar(&steady, "steady", 0, "repeat the workload over this many seeds and report each metric's spread")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload serve-hot|serve-cold|fleet-sweep, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	var err error
	if steady > 0 {
		err = runSteady(cfg, steady)
	} else {
		timer := time.AfterFunc(deadline, func() {
			fmt.Fprintln(os.Stderr, "perfbench: run exceeded", deadline)
			os.Exit(3)
		})
		err = run(cfg)
		timer.Stop()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// window is one measured stretch of closed-loop operations.
type window struct {
	first, next int // op indices [first, next) ran in it
	lats        []time.Duration
	ends        []time.Duration // each op's completion, from the window's start
	failed      int
	elapsed     time.Duration
}

func (w window) ops() int { return w.next - w.first }

func (w window) rate() float64 { return float64(w.ops()) / w.elapsed.Seconds() }

// stretches is how many equal stretches of time a window's timings are
// read over. Each timing metric is the median across them, so host
// contention in one or two stretches does not move it.
const stretches = 5

// slices holds a window's figures per stretch.
type slices struct {
	dur                time.Duration
	counts             []int
	rates, p50s, tails []float64
	pct                float64 // the tail percentile, common to all stretches
}

// sliceWindow splits the window into stretches by each operation's
// completion time and reads throughput, median and tail latency in each.
// The tail percentile is the workload's own and never changes from run to
// run, so runs stay comparable; the counts printed beside it show how many
// samples each stretch left beyond it.
func sliceWindow(win window, pct float64) slices {
	s := slices{dur: win.elapsed / stretches, pct: pct}
	lats := make([][]time.Duration, stretches)
	for i, e := range win.ends {
		k := min(int(e/s.dur), stretches-1)
		lats[k] = append(lats[k], win.lats[i])
	}
	for _, l := range lats {
		sorted := sortedDurations(l)
		s.counts = append(s.counts, len(l))
		s.rates = append(s.rates, float64(len(l))/s.dur.Seconds())
		s.p50s = append(s.p50s, ms(rank(sorted, 50)))
		s.tails = append(s.tails, ms(rank(sorted, s.pct)))
	}
	return s
}

// loop runs the workload's callers in a closed loop from op index first
// until limit ops have been claimed or until stop passes, whichever comes
// first; a caller claims its next op only after its previous one answered.
func loop(w workload, first, limit int, stop time.Time) window {
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		out     = window{first: first}
		callers = w.callers()
	)
	next.Store(int64(first))
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lats, ends []time.Duration
			failed := 0
			for stop.IsZero() || time.Now().Before(stop) {
				i := int(next.Add(1) - 1)
				if i >= limit {
					break
				}
				lat, ok := w.op(c, i)
				lats = append(lats, lat)
				ends = append(ends, time.Since(start))
				if !ok {
					failed++
				}
			}
			mu.Lock()
			out.lats = append(out.lats, lats...)
			out.ends = append(out.ends, ends...)
			out.failed += failed
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	out.next = first + len(out.lats)
	return out
}

func run(cfg config) error {
	began := time.Now()
	fmt.Printf("# perfbench %s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, btoi(cfg.trace))
	st := hardwareStamp()
	if b, err := json.Marshal(st); err == nil {
		fmt.Printf("# stamp %s\n", b)
	}

	// Set up setupReps times from scratch; time each from the start of the
	// workload to its first timed request, and keep the last stack.
	var (
		w      workload
		setups []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		if w != nil {
			if err := w.close(); err != nil {
				return fmt.Errorf("closing set-up stack: %w", err)
			}
			w = nil
			runtime.GC()
		}
		t0 := time.Now()
		w = workloads[cfg.workload](cfg)
		if err := w.setup(); err != nil {
			w.close()
			return fmt.Errorf("set-up: %w", err)
		}
		if warm := loop(w, 0, w.warmOps(), time.Time{}); warm.failed > 0 {
			w.close()
			return fmt.Errorf("set-up: %d of %d warm-up operations failed", warm.failed, warm.ops())
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	fmt.Printf("# setup_s over %d set-ups: %s\n", len(setups), floats(setups))

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w.begin()
	var win, untraced window
	total := time.Duration(cfg.seconds) * time.Second
	if !cfg.trace {
		win = loop(w, w.warmOps(), math.MaxInt, time.Now().Add(total))
	} else {
		// The traced run measures half its time untraced and half traced;
		// their throughput ratio is what the tracing costs.
		untraced = loop(w, w.warmOps(), math.MaxInt, time.Now().Add(total/2))
		w.traceOn()
		win = loop(w, untraced.next, math.MaxInt, time.Now().Add(total/2))
		w.traceOff()
	}
	runtime.ReadMemStats(&after)
	// Two collections: the first moves sync.Pool contents (the engines'
	// pooled arenas) to the victim cache, the second frees them, so what
	// stays is what the cache and the job table retain.
	runtime.GC()
	runtime.GC()
	var settled runtime.MemStats
	runtime.ReadMemStats(&settled)

	attempted := win.ops() + untraced.ops()
	failed := win.failed + untraced.failed
	problems := w.check(attempted)
	vfail, err := w.verify(w.warmOps(), win.next)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	// An answer can fail both in the loop and in verify; count it once.
	failed = min(failed+vfail, attempted)
	for _, p := range problems {
		fmt.Printf("# MIX CHECK FAILED: %s\n", p)
	}

	res := result{
		Correct:   failed == 0 && len(problems) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	fmt.Printf("# window: %d operations in %.3f s, %d callers, %d failed\n", win.ops(), win.elapsed.Seconds(), w.callers(), win.failed)
	if !cfg.trace {
		ops := float64(win.ops())
		sl := sliceWindow(win, w.tailPct())
		past := make([]int, len(sl.counts))
		for k, n := range sl.counts {
			past[k] = beyond(n, sl.pct)
		}
		fmt.Printf("# per stretch of %.3f s: rate %s /s, p50 %s ms, p%g %s ms (samples %s; beyond p%g %s)\n",
			sl.dur.Seconds(), floats(sl.rates), floats(sl.p50s), sl.pct, floats(sl.tails), ints(sl.counts), sl.pct, ints(past))
		m := res.Metrics
		// Both throughput names are reported on every workload: requests
		// are the calls a caller makes (runs, or RunMany grids on
		// fleet-sweep), cells the elections those calls answer.
		verified := medianFloat(sl.rates) * float64(win.ops()-win.failed) / ops
		m["requests_per_s"] = metric{verified, "1/s"}
		m["cells_per_s"] = metric{verified * float64(w.cells()), "1/s"}
		m["latency_p50_ms"] = metric{medianFloat(sl.p50s), "ms"}
		m["latency_tail_ms"] = metric{medianFloat(sl.tails), "ms"}
		m["ok_ratio"] = metric{float64(attempted-failed) / float64(attempted), "ratio"}
		m["allocs_per_op"] = metric{float64(after.Mallocs-before.Mallocs) / ops, "count"}
		m["alloc_kb_per_op"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / 1024 / ops, "KiB"}
		m["live_heap_mb"] = metric{float64(settled.HeapAlloc) / (1 << 20), "MiB"}
		m["setup_s"] = metric{medianFloat(setups), "s"}
	} else {
		lr, err := w.layers(win)
		if err != nil {
			return fmt.Errorf("layers: %w", err)
		}
		lr.set("trace.overhead_ratio", win.rate()/untraced.rate(), "ratio")
		lr.print()
		res.Metrics = lr.metrics
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("# run took %.1f s\n", time.Since(began).Seconds())
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func ints(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, " ")
}

func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}
