// Command sweep measures one algorithm across network sizes and parameter
// values, printing a table (or CSV) with mean messages, rounds/time, and a
// fitted message-complexity exponent. Runs fan out over a worker pool
// (elect.RunMany), so wide sweeps use every core.
//
// The -json flag additionally writes the rows as machine-readable benchmark
// output ("auto" names the file BENCH_<date>.json), so perf trajectories can
// be tracked across commits; -compare diffs the fresh rows against such a
// prior file and fails on >10% regressions. The -cache flag stores every
// run's result in a persistent content-addressed cache (shared with electd
// and any other elect.Cache consumer), so repeated sweeps replay instead of
// recompute.
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
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"cliquelect/elect"
	"cliquelect/elect/client"
	"cliquelect/internal/cliutil"
	"cliquelect/internal/distrib"
	"cliquelect/internal/obs"
	"cliquelect/internal/resultcache"
	"cliquelect/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		algo     = fs.String("algo", "tradeoff", "algorithm name")
		nsFlag   = fs.String("ns", "256,512,1024,2048", "comma-separated network sizes")
		kFlag    = fs.String("k", "3", "comma-separated k values (tradeoff-family algorithms)")
		d        = fs.Int("d", 2, "smallid d")
		g        = fs.Int("g", 1, "smallid g")
		eps      = fs.Float64("eps", 1.0/16, "advwake epsilon")
		seeds    = fs.Int("seeds", 10, "runs per configuration")
		seed     = fs.Uint64("seed", 1, "master seed")
		wake     = fs.Int("wake", 0, "adversarial wake-up set size (0 = simultaneous)")
		policy   = fs.String("policy", "unit", "async delay policy")
		workers  = fs.String("workers", "0", "parallel runs (0 = GOMAXPROCS), or a comma-separated electd host list for fleet dispatch")
		csv      = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		jsonOut  = fs.String("json", "", `also write machine-readable benchmark JSON to this path ("auto" = BENCH_<date>.json)`)
		compare  = fs.String("compare", "", "diff the new rows against this prior BENCH_*.json and fail on >10% regressions")
		cacheDir = fs.String("cache", "", "persistent result-cache directory; repeated sweeps replay cached runs")
		topoFlag = fs.String("topo", "", "comma-separated topology specs swept as an extra axis, e.g. ring,torus,rreg:d=8 (empty = clique)")
		traceOut = fs.String("trace-out", "", "trace the sweep and write Chrome trace-event JSON (about:tracing / Perfetto) to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := elect.Lookup(*algo)
	if err != nil {
		return err
	}
	if _, err := elect.ParseDelays(*policy); err != nil {
		return err
	}
	ns, err := cliutil.ParseInts(*nsFlag)
	if err != nil {
		return err
	}
	ks, err := cliutil.ParseInts(*kFlag)
	if err != nil {
		return err
	}
	localWorkers, fleetHosts, err := cliutil.ParseWorkers(*workers)
	if err != nil {
		return err
	}
	// -trace-out roots one trace over the whole invocation: every per-k
	// batch (local) or grid (fleet) rides under the same sweep span, so the
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
	topos := cliutil.SplitTopos(*topoFlag)

	var table *stats.Table
	if len(topos) > 0 {
		table = stats.NewTable("topo", "k", "n", "mean msgs", "std", "mean time", "success")
	} else {
		table = stats.NewTable("k", "n", "mean msgs", "std", "mean time", "success")
	}
	bench := benchFile{
		Date: time.Now().UTC().Format("2006-01-02"), Algo: *algo, Seeds: *seeds,
	}
	cells := 0
	start := time.Now()
	for _, k := range ks {
		// One request drives both paths: its resolved batch runs locally,
		// and its options reach fleet workers verbatim, so a remote cell is
		// byte-identical to a local one.
		req := client.BatchRequest{
			Spec:    *algo,
			Ns:      ns,
			Seeds:   elect.Seeds(*seed+uint64(k)*104729, *seeds),
			Topos:   topos,
			Workers: localWorkers,
			Options: client.Options{
				Params: &client.ParamSpec{K: &k, D: d, G: g, Eps: eps},
				Wake:   *wake,
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
		kStart := time.Now()
		batch, err := elect.RunMany(spec, b)
		if err != nil {
			return err
		}
		if spanCol != nil && fleet == nil {
			// Local mode has no grid spans, so give each k iteration its own
			// span under the sweep root (fleet mode gets them from distrib).
			spanCol.Add(obs.NewSpan(traceRoot.Child(), traceRoot.Span, "batch", "sweep",
				kStart, time.Since(kStart),
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
			success := fmt.Sprintf("%d/%d", agg.Successes, agg.Runs)
			if len(topos) > 0 {
				table.AddRow(agg.Topo, k, agg.N, agg.Messages.Mean, agg.Messages.Std, agg.Time.Mean, success)
			} else {
				table.AddRow(k, agg.N, agg.Messages.Mean, agg.Messages.Std, agg.Time.Mean, success)
			}
			bench.Rows = append(bench.Rows, benchRow{
				Algo: *algo, Topo: agg.Topo, K: k, N: agg.N,
				MeanMsgs: agg.Messages.Mean, StdMsgs: agg.Messages.Std,
				MeanTime: agg.Time.Mean, SuccessRate: agg.SuccessRate,
			})
		}
		if len(ns) >= 2 {
			for _, topoName := range fitOrder {
				fit, err := stats.FitPower(fitXs[topoName], fitYs[topoName])
				if err != nil {
					continue
				}
				if topoName != "" {
					fmt.Printf("# k=%d topo=%s: %s\n", k, topoName, fit)
				} else {
					fmt.Printf("# k=%d: %s\n", k, fit)
				}
				bench.Fits = append(bench.Fits, benchFit{K: k, Topo: topoName, Fit: fit.String()})
			}
		}
	}
	elapsed := time.Since(start)
	if *csv {
		// CSV output stays a pure function of the flags (no timing line), so
		// it can be diffed and machine-consumed.
		fmt.Print(table.CSV())
	} else {
		fmt.Print(table.String())
		fmt.Printf("# %d cells in %v (%.0f cells/s)\n",
			cells, elapsed.Round(time.Millisecond), float64(cells)/elapsed.Seconds())
	}
	if fleet != nil && !*csv {
		fmt.Print(fleet.Stats())
	}
	if cache != nil {
		s := cache.Stats()
		fmt.Printf("# cache: %d hits (%d from disk), %d misses\n", s.Hits, s.DiskHits, s.Misses)
	}
	if *jsonOut != "" {
		path := *jsonOut
		if path == "auto" {
			path = "BENCH_" + bench.Date + ".json"
		}
		if err := writeBenchJSON(path, bench); err != nil {
			return err
		}
		fmt.Printf("# wrote %s\n", path)
	}
	if *compare != "" {
		if err := compareBench(*compare, bench); err != nil {
			return err
		}
	}
	if spanCol != nil {
		spanCol.Add(obs.NewSpan(traceRoot, obs.SpanID{}, "sweep", "sweep", start, elapsed,
			map[string]string{"algo": *algo, "cells": strconv.Itoa(cells)}))
		if err := writeTrace(*traceOut, spanCol.Trace(traceRoot.Trace), !*csv); err != nil {
			return err
		}
		if !*csv {
			fmt.Printf("# wrote %s (trace %s, %d spans)\n",
				*traceOut, traceRoot.Trace, spanCol.Len())
		}
	}
	return nil
}

// writeTrace exports the sweep's spans as Chrome trace-event JSON and, when
// verbose, prints an ASCII waterfall of the slowest chunk dispatch — the
// at-a-glance answer to "where did the time go".
func writeTrace(path string, spans []obs.Span, verbose bool) error {
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
		fmt.Printf("# slowest chunk dispatch (%s cells [%s, +%s)):\n",
			slowest.Attrs["worker"], slowest.Attrs["start"], slowest.Attrs["count"])
		obs.Waterfall(os.Stdout, "# ", *slowest, spans, 48)
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
func compareBench(path string, fresh benchFile) error {
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
		fmt.Printf("# REGRESSION %s k=%d n=%d %s: %.4g -> %.4g (%+.1f%%)\n",
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
	fmt.Printf("# compare: %d/%d rows matched against %s, %d regressions\n",
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
