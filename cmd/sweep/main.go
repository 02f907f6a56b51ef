// Command sweep measures algorithms across network sizes, parameter values
// and injected faults, printing a table (or CSV) with mean messages,
// rounds/time, the success count and a fitted message-complexity exponent.
// Runs fan out over a worker pool (elect.RunMany), so wide sweeps use every
// core.
//
// The -algo flag takes one spec, a comma-separated list, or "all" for every
// fault-tolerant spec. The grid is spec × k × crash × drop × topo × n, and
// the table grows one column per swept axis: algo with several specs, topo
// with -topo, and the crash/drop rates plus the mean crashed/dropped/
// duplicated counters in fault mode (a non-zero -crash or -drop rate, or a
// -faults base plan). A fault-free sweep prints no fault columns.
//
// The -json flag additionally writes the rows as machine-readable benchmark
// output ("auto" names the file BENCH_<date>.json), so perf trajectories can
// be tracked across commits; -compare diffs the fresh rows against such a
// prior file and fails on >10% regressions. Both describe fault-free sweeps
// only. The -cache flag stores every run's result in a persistent
// content-addressed cache (shared with electd and any other elect.Cache
// consumer), so repeated sweeps replay instead of recompute.
//
// The -workers flag is dual-mode: an integer bounds the local worker pool,
// while a comma-separated host list shards the sweep across that fleet of
// electd daemons (internal/distrib) — byte-identical output either way,
// with a per-worker cells/s breakdown at the end of the run.
//
// The -trace-out flag traces the whole invocation — client calls,
// coordinator dispatches, worker-side queue/exec spans returned in chunk
// responses — into one distributed trace, written as Chrome trace-event
// JSON (load it in about:tracing or Perfetto), plus an ASCII waterfall of
// the slowest chunk dispatch on stdout. Tracing is observational: traced
// and untraced sweeps produce byte-identical results.
//
// Usage:
//
//	sweep -algo tradeoff -k 3,4,5 -ns 256,512,1024,2048
//	sweep -algo asynctradeoff -k 2,3 -ns 256,1024 -wake 1 -csv
//	sweep -algo tradeoff -k 3,4 -ns 256,512,1024 -json auto
//	sweep -algo tradeoff -k 3,4 -ns 256,512,1024 -compare BENCH_2026-07-30.json
//	sweep -algo tradeoff -ns 4096 -seeds 50 -cache /tmp/electcache
//	sweep -algo tradeoff -ns 4096,8192 -seeds 50 -workers host1:8090,host2:8090
//	sweep -algo tradeoff -ns 1024 -seeds 20 -workers host1:8090,host2:8090 -trace-out sweep.trace.json
//	sweep -algo kuttenmoses -topo ring,torus,rreg:d=8 -ns 256,1024,4096
//	sweep -algo tradeoff,asynctradeoff -ns 64,128 -drop 0,0.05,0.1,0.2
//	sweep -algo all -ns 128 -crash 0,0.1,0.3 -faults dup=0.02,adaptive=1 -csv
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"cliquelect/elect"
	"cliquelect/elect/client"
	"cliquelect/internal/distrib"
	"cliquelect/internal/obs"
	"cliquelect/internal/resultcache"
	"cliquelect/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		algo      = fs.String("algo", "tradeoff", `algorithm names (comma-separated), or "all" for every fault-tolerant spec`)
		nsFlag    = fs.String("ns", "256,512,1024,2048", "comma-separated network sizes")
		kFlag     = fs.String("k", "3", "comma-separated k values (tradeoff-family algorithms)")
		crashFlag = fs.String("crash", "0", "comma-separated node-crash rates")
		dropFlag  = fs.String("drop", "0", "comma-separated message-drop rates")
		base      = fs.String("faults", "", "base fault plan applied to every cell, elect.ParseFaults syntax (e.g. dup=0.02,dropfirst=4,adaptive=1); crash/drop belong to the sweep axes")
		d         = fs.Int("d", 2, "smallid d")
		g         = fs.Int("g", 1, "smallid g")
		eps       = fs.Float64("eps", 1.0/16, "advwake epsilon")
		seeds     = fs.Int("seeds", 10, "runs per configuration")
		seed      = fs.Uint64("seed", 1, "master seed")
		wake      = fs.Int("wake", 0, "adversarial wake-up set size (0 = simultaneous)")
		policy    = fs.String("policy", "unit", "async delay policy")
		workers   = fs.String("workers", "0", "parallel runs (0 = GOMAXPROCS), or a comma-separated electd host list for fleet dispatch")
		csv       = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		jsonOut   = fs.String("json", "", `also write machine-readable benchmark JSON to this path ("auto" = BENCH_<date>.json); fault-free sweeps only`)
		compare   = fs.String("compare", "", "diff the new rows against this prior BENCH_*.json and fail on >10% regressions; fault-free sweeps only")
		cacheDir  = fs.String("cache", "", "persistent result-cache directory; repeated sweeps replay cached runs (adaptive fault plans always re-execute)")
		topoFlag  = fs.String("topo", "", "comma-separated topology specs swept as an extra axis, e.g. ring,torus,rreg:d=8 (empty = clique)")
		traceOut  = fs.String("trace-out", "", "trace the sweep and write Chrome trace-event JSON (about:tracing / Perfetto) to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	specs, err := resolveSpecs(*algo)
	if err != nil {
		return err
	}
	if _, err := elect.ParseDelays(*policy); err != nil {
		return err
	}
	ns, err := parseInts(*nsFlag)
	if err != nil {
		return err
	}
	ks, err := parseInts(*kFlag)
	if err != nil {
		return err
	}
	crashes, err := parseFloats(*crashFlag)
	if err != nil {
		return err
	}
	drops, err := parseFloats(*dropFlag)
	if err != nil {
		return err
	}
	basePlan, err := elect.ParseFaults(*base)
	if err != nil {
		return err
	}
	// The sweep axes own the crash and drop rates; a base plan that also sets
	// them would be silently overwritten per cell, so reject the conflict.
	if basePlan.CrashRate != 0 || basePlan.DropRate != 0 {
		return errors.New("set crash/drop rates via the -crash/-drop sweep axes, not -faults")
	}
	faultMode := strings.TrimSpace(*base) != ""
	for _, rate := range slices.Concat(crashes, drops) {
		faultMode = faultMode || rate != 0
	}
	if faultMode && (*jsonOut != "" || *compare != "") {
		return errors.New("-json and -compare describe fault-free sweeps; drop -crash, -drop and -faults")
	}
	localWorkers, fleetHosts, err := parseWorkers(*workers)
	if err != nil {
		return err
	}
	// -trace-out roots one trace over the whole invocation: every batch
	// (local) or grid (fleet) rides under the same sweep span, so the
	// exported file shows the full client→coordinator→worker waterfall.
	var spanCol *obs.SpanCollector
	var traceRoot obs.SpanContext
	if *traceOut != "" {
		spanCol = obs.NewSpanCollector(0)
		traceRoot = obs.NewSpanContext()
	}
	var fleet *distrib.Fleet
	if fleetHosts != nil {
		if fleet, err = distrib.New(distrib.Config{
			Workers: fleetHosts, Spans: spanCol, Root: traceRoot,
		}); err != nil {
			return err
		}
	}

	var cache *resultcache.Cache
	if *cacheDir != "" {
		cache = resultcache.New(resultcache.WithDir(*cacheDir))
	}
	topos := splitTopos(*topoFlag)

	// One optional column per swept axis, so a single-spec fault-free sweep
	// prints the table it always has.
	multi := len(specs) > 1
	var header []string
	if multi {
		header = append(header, "algo")
	}
	if len(topos) > 0 {
		header = append(header, "topo")
	}
	header = append(header, "k", "n")
	if faultMode {
		header = append(header, "crash", "drop")
	}
	header = append(header, "mean msgs", "std", "mean time", "success")
	if faultMode {
		header = append(header, "crashed", "dropped", "dup'd")
	}
	table := stats.NewTable(header...)
	bench := benchFile{
		Date: time.Now().UTC().Format("2006-01-02"), Algo: *algo, Seeds: *seeds,
	}
	cells := 0
	// runBatch runs one (spec, k, crash, drop) batch over every topo × n and
	// adds its rows and fit lines.
	runBatch := func(spec elect.Spec, k int, crash, drop float64) error {
		// One request drives both paths: its resolved batch runs locally,
		// and its options reach fleet workers verbatim, so a remote cell is
		// byte-identical to a local one.
		req := client.BatchRequest{
			Spec:    spec.Name,
			Ns:      ns,
			Seeds:   elect.Seeds(*seed+uint64(k)*104729, *seeds),
			Topos:   topos,
			Workers: localWorkers,
			Options: client.Options{
				Params: &client.ParamSpec{K: &k, D: d, G: g, Eps: eps},
				Wake:   *wake,
				Faults: wireFaults(*base, crash, drop),
			},
		}
		if spec.Model == elect.Async {
			req.Delays = *policy
		}
		_, b, err := req.Resolve()
		if err != nil {
			return err
		}
		if cache != nil {
			b.Cache = cache
		}
		if fleet != nil {
			b.Remote = fleet.Runner(req.Options)
		}
		bStart := time.Now()
		batch, err := elect.RunMany(spec, b)
		if err != nil {
			return err
		}
		if spanCol != nil && fleet == nil {
			// Local mode has no grid spans, so give each batch its own span
			// under the sweep root (fleet mode gets them from distrib).
			spanCol.Add(obs.NewSpan(traceRoot.Child(), traceRoot.Span, "batch", "sweep",
				bStart, time.Since(bStart),
				map[string]string{"k": strconv.Itoa(k), "cells": strconv.Itoa(len(batch.Runs))}))
		}
		cells += len(batch.Runs)
		// One power fit per topology group (the clique-only sweep is the
		// single group with the empty label).
		fitXs := map[string][]float64{}
		fitYs := map[string][]float64{}
		var fitOrder []string
		for _, agg := range batch.Aggregates {
			if _, seen := fitXs[agg.Topo]; !seen {
				fitOrder = append(fitOrder, agg.Topo)
			}
			fitXs[agg.Topo] = append(fitXs[agg.Topo], float64(agg.N))
			fitYs[agg.Topo] = append(fitYs[agg.Topo], agg.Messages.Mean)
			var row []any
			if multi {
				row = append(row, spec.Name)
			}
			if len(topos) > 0 {
				row = append(row, agg.Topo)
			}
			row = append(row, k, agg.N)
			if faultMode {
				row = append(row, crash, drop)
			}
			row = append(row, agg.Messages.Mean, agg.Messages.Std, agg.Time.Mean,
				fmt.Sprintf("%d/%d", agg.Successes, agg.Runs))
			if faultMode {
				row = append(row, agg.MeanCrashed, agg.MeanDropped, agg.MeanDuplicated)
			}
			table.AddRow(row...)
			bench.Rows = append(bench.Rows, benchRow{
				Algo: spec.Name, Topo: agg.Topo, K: k, N: agg.N,
				MeanMsgs: agg.Messages.Mean, StdMsgs: agg.Messages.Std,
				MeanTime: agg.Time.Mean, SuccessRate: agg.SuccessRate,
			})
		}
		if len(ns) < 2 {
			return nil
		}
		// A fit line names every swept axis but n.
		label := fmt.Sprintf("k=%d", k)
		if multi {
			label = "algo=" + spec.Name + " " + label
		}
		if faultMode {
			label += fmt.Sprintf(" crash=%g drop=%g", crash, drop)
		}
		for _, topoName := range fitOrder {
			fit, err := stats.FitPower(fitXs[topoName], fitYs[topoName])
			if err != nil {
				continue
			}
			if topoName != "" {
				fmt.Fprintf(w, "# %s topo=%s: %s\n", label, topoName, fit)
			} else {
				fmt.Fprintf(w, "# %s: %s\n", label, fit)
			}
			fitFor := benchFit{K: k, Topo: topoName, Fit: fit.String()}
			if multi {
				fitFor.Algo = spec.Name
			}
			bench.Fits = append(bench.Fits, fitFor)
		}
		return nil
	}
	start := time.Now()
	for _, spec := range specs {
		for _, k := range ks {
			for _, crash := range crashes {
				for _, drop := range drops {
					if err := runBatch(spec, k, crash, drop); err != nil {
						return err
					}
				}
			}
		}
	}
	elapsed := time.Since(start)
	if *csv {
		// CSV output stays a pure function of the flags (no timing line), so
		// it can be diffed and machine-consumed.
		fmt.Fprint(w, table.CSV())
	} else {
		fmt.Fprint(w, table.String())
		fmt.Fprintf(w, "# %d cells in %v (%.0f cells/s)\n",
			cells, elapsed.Round(time.Millisecond), float64(cells)/elapsed.Seconds())
	}
	if fleet != nil && !*csv {
		fmt.Fprint(w, fleet.Stats())
	}
	if cache != nil {
		s := cache.Stats()
		fmt.Fprintf(w, "# cache: %d hits (%d from disk), %d misses\n", s.Hits, s.DiskHits, s.Misses)
	}
	if *jsonOut != "" {
		path := *jsonOut
		if path == "auto" {
			path = "BENCH_" + bench.Date + ".json"
		}
		if err := writeBenchJSON(path, bench); err != nil {
			return err
		}
		fmt.Fprintf(w, "# wrote %s\n", path)
	}
	if *compare != "" {
		if err := compareBench(w, *compare, bench); err != nil {
			return err
		}
	}
	if spanCol != nil {
		spanCol.Add(obs.NewSpan(traceRoot, obs.SpanID{}, "sweep", "sweep", start, elapsed,
			map[string]string{"algo": *algo, "cells": strconv.Itoa(cells)}))
		if err := writeTrace(w, *traceOut, spanCol.Trace(traceRoot.Trace), !*csv); err != nil {
			return err
		}
		if !*csv {
			fmt.Fprintf(w, "# wrote %s (trace %s, %d spans)\n",
				*traceOut, traceRoot.Trace, spanCol.Len())
		}
	}
	return nil
}

// writeTrace exports the sweep's spans as Chrome trace-event JSON and, when
// verbose, prints an ASCII waterfall of the slowest chunk dispatch — the
// at-a-glance answer to "where did the time go".
func writeTrace(w io.Writer, path string, spans []obs.Span, verbose bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if !verbose {
		return nil
	}
	var slowest *obs.Span
	for i := range spans {
		if spans[i].Name != "chunk.dispatch" {
			continue
		}
		if slowest == nil || spans[i].Dur > slowest.Dur {
			slowest = &spans[i]
		}
	}
	if slowest != nil {
		fmt.Fprintf(w, "# slowest chunk dispatch (%s cells [%s, +%s)):\n",
			slowest.Attrs["worker"], slowest.Attrs["start"], slowest.Attrs["count"])
		obs.Waterfall(w, "# ", *slowest, spans, 48)
	}
	return nil
}

// regressionThreshold flags rows whose cost grew (or success shrank) by
// more than this fraction relative to the prior benchmark file.
const regressionThreshold = 0.10

// compareBench diffs the fresh rows against a prior benchFile, matching on
// (algo, k, n): mean messages or mean time more than 10% above the prior
// value — or a success rate more than 10% below it — is a regression, and
// any regression makes the sweep exit non-zero so CI can gate on it.
func compareBench(w io.Writer, path string, fresh benchFile) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var prior benchFile
	if err := json.Unmarshal(data, &prior); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	type rowKey struct {
		algo, topo string
		k, n       int
	}
	old := make(map[rowKey]benchRow, len(prior.Rows))
	for _, r := range prior.Rows {
		old[rowKey{r.Algo, r.Topo, r.K, r.N}] = r
	}
	matched, regressions := 0, 0
	flag := func(r benchRow, metric string, was, is float64) {
		regressions++
		label := r.Algo
		if r.Topo != "" {
			label += " topo=" + r.Topo
		}
		fmt.Fprintf(w, "# REGRESSION %s k=%d n=%d %s: %.4g -> %.4g (%+.1f%%)\n",
			label, r.K, r.N, metric, was, is, 100*(is-was)/was)
	}
	for _, r := range fresh.Rows {
		o, ok := old[rowKey{r.Algo, r.Topo, r.K, r.N}]
		if !ok {
			continue
		}
		matched++
		if o.MeanMsgs > 0 && r.MeanMsgs > o.MeanMsgs*(1+regressionThreshold) {
			flag(r, "mean_msgs", o.MeanMsgs, r.MeanMsgs)
		}
		if o.MeanTime > 0 && r.MeanTime > o.MeanTime*(1+regressionThreshold) {
			flag(r, "mean_time", o.MeanTime, r.MeanTime)
		}
		if o.SuccessRate > 0 && r.SuccessRate < o.SuccessRate*(1-regressionThreshold) {
			flag(r, "success_rate", o.SuccessRate, r.SuccessRate)
		}
	}
	fmt.Fprintf(w, "# compare: %d/%d rows matched against %s, %d regressions\n",
		matched, len(fresh.Rows), path, regressions)
	if matched == 0 {
		return fmt.Errorf("no rows of this sweep match %s (algo/k/n differ)", path)
	}
	if regressions > 0 {
		return fmt.Errorf("%d regressions >%d%% vs %s", regressions, int(100*regressionThreshold), path)
	}
	return nil
}

// benchFile is the machine-readable benchmark artifact written by -json: one
// sweep invocation, its per-(k, n) measurements and the fitted exponents.
// The schema is append-friendly so the perf trajectory (BENCH_<date>.json
// files across commits) stays diffable.
type benchFile struct {
	Date  string     `json:"date"`
	Algo  string     `json:"algo"`
	Seeds int        `json:"seeds"`
	Rows  []benchRow `json:"rows"`
	Fits  []benchFit `json:"fits,omitempty"`
}

type benchRow struct {
	Algo        string  `json:"algo"`
	Topo        string  `json:"topo,omitempty"`
	K           int     `json:"k"`
	N           int     `json:"n"`
	MeanMsgs    float64 `json:"mean_msgs"`
	StdMsgs     float64 `json:"std_msgs"`
	MeanTime    float64 `json:"mean_time"`
	SuccessRate float64 `json:"success_rate"`
}

type benchFit struct {
	Algo string `json:"algo,omitempty"` // set only when several specs are swept
	K    int    `json:"k"`
	Topo string `json:"topo,omitempty"`
	Fit  string `json:"fit"`
}

func writeBenchJSON(path string, bench benchFile) error {
	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
