// Command faultsweep measures election resilience under injected faults: it
// sweeps crash and drop rates across specs and network sizes and prints a
// resilience table — election-success rate, message cost and the fault
// counters per configuration. Per-seed runs are deterministic, so a table is
// reproducible from its seed; rows fan out over a worker pool (elect.RunMany).
//
// The -workers flag is dual-mode like cmd/sweep's: an integer bounds the
// local worker pool, a comma-separated host list shards the sweep across a
// fleet of electd daemons (byte-identical results, per-worker cells/s
// breakdown at the end).
//
// Usage:
//
//	faultsweep -algo tradeoff -ns 64,128 -drop 0,0.05,0.1,0.2
//	faultsweep -algo all -ns 128 -crash 0,0.1,0.3 -csv
//	faultsweep -algo asynctradeoff -drop 0.1 -faults adaptive=1,dup=0.02
//	faultsweep -algo tradeoff -ns 256 -seeds 50 -cache /tmp/electcache
//	faultsweep -algo tradeoff -ns 256 -workers host1:8090,host2:8090
//	faultsweep -algo kpprt -ns 256 -topo ring,torus -drop 0,0.05
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"cliquelect/elect"
	"cliquelect/elect/client"
	"cliquelect/internal/cliutil"
	"cliquelect/internal/distrib"
	"cliquelect/internal/resultcache"
	"cliquelect/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "faultsweep:", err)
		os.Exit(1)
	}
}

// resolveSpecs turns the -algo flag into specs: a comma-separated name list,
// or "all" for every fault-qualified spec in the registry.
func resolveSpecs(algo string) ([]elect.Spec, error) {
	if algo == "all" {
		var out []elect.Spec
		for _, s := range elect.Registry() {
			if s.FaultTolerant {
				out = append(out, s)
			}
		}
		return out, nil
	}
	var out []elect.Spec
	for _, name := range strings.Split(algo, ",") {
		spec, err := elect.Lookup(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, spec)
	}
	return out, nil
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("faultsweep", flag.ContinueOnError)
	var (
		algo      = fs.String("algo", "tradeoff", `algorithm names (comma-separated), or "all" for every fault-qualified spec`)
		nsFlag    = fs.String("ns", "64,128", "comma-separated network sizes")
		dropFlag  = fs.String("drop", "0,0.05,0.1,0.2", "comma-separated message-drop rates")
		crashFlag = fs.String("crash", "0", "comma-separated node-crash rates")
		base      = fs.String("faults", "", "base fault plan applied to every cell, elect.ParseFaults syntax (e.g. dup=0.02,dropfirst=4,adaptive=1); crash/drop belong to the sweep axes")
		k         = fs.Int("k", 3, "tradeoff parameter k")
		d         = fs.Int("d", 2, "smallid d")
		g         = fs.Int("g", 1, "smallid g")
		eps       = fs.Float64("eps", 1.0/16, "advwake epsilon")
		seeds     = fs.Int("seeds", 20, "runs per configuration")
		seed      = fs.Uint64("seed", 1, "master seed")
		wake      = fs.Int("wake", 0, "adversarial wake-up set size (0 = simultaneous)")
		policy    = fs.String("policy", "unit", "async delay policy")
		workers   = fs.String("workers", "0", "parallel runs (0 = GOMAXPROCS), or a comma-separated electd host list for fleet dispatch")
		csv       = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		cacheDir  = fs.String("cache", "", "persistent result-cache directory; repeated sweeps replay cached runs (adaptive plans always re-execute)")
		topoFlag  = fs.String("topo", "", "comma-separated topology specs swept as an extra axis, e.g. ring,torus (empty = clique)")
	)
	fs.SetOutput(w)
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
	basePlan, err := elect.ParseFaults(*base)
	if err != nil {
		return err
	}
	// The sweep axes own the crash and drop rates; a base plan that also sets
	// them would be silently overwritten per cell, so reject the conflict.
	if basePlan.CrashRate != 0 || basePlan.DropRate != 0 {
		return fmt.Errorf("set crash/drop rates via the -crash/-drop sweep axes, not -faults")
	}
	ns, err := cliutil.ParseInts(*nsFlag)
	if err != nil {
		return err
	}
	drops, err := cliutil.ParseFloats(*dropFlag)
	if err != nil {
		return err
	}
	crashes, err := cliutil.ParseFloats(*crashFlag)
	if err != nil {
		return err
	}
	localWorkers, fleetHosts, err := cliutil.ParseWorkers(*workers)
	if err != nil {
		return err
	}
	var fleet *distrib.Fleet
	if fleetHosts != nil {
		if fleet, err = distrib.New(distrib.Config{Workers: fleetHosts}); err != nil {
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
		table = stats.NewTable("algo", "topo", "n", "crash", "drop", "success", "mean msgs",
			"mean time", "crashed", "dropped", "dup'd")
	} else {
		table = stats.NewTable("algo", "n", "crash", "drop", "success", "mean msgs",
			"mean time", "crashed", "dropped", "dup'd")
	}
	cells := 0
	start := time.Now()
	for _, spec := range specs {
		for _, cr := range crashes {
			for _, dr := range drops {
				// One request drives both paths: its resolved batch runs
				// locally, and its options reach fleet workers verbatim, so a
				// remote cell is byte-identical to a local one. Crash/drop
				// rates ride the -faults syntax and round-trip exactly ('g'
				// formatting).
				req := client.BatchRequest{
					Spec:    spec.Name,
					Ns:      ns,
					Seeds:   elect.Seeds(*seed, *seeds),
					Topos:   topos,
					Workers: localWorkers,
					Options: client.Options{
						Params: &client.ParamSpec{K: k, D: d, G: g, Eps: eps},
						Wake:   *wake,
						Faults: wireFaults(*base, cr, dr),
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
				batch, err := elect.RunMany(spec, b)
				if err != nil {
					return err
				}
				cells += len(batch.Runs)
				for _, agg := range batch.Aggregates {
					if len(topos) > 0 {
						table.AddRow(spec.Name, agg.Topo, agg.N, cr, dr,
							fmt.Sprintf("%.2f", agg.SuccessRate),
							agg.Messages.Mean, agg.Time.Mean,
							agg.MeanCrashed, agg.MeanDropped, agg.MeanDuplicated)
					} else {
						table.AddRow(spec.Name, agg.N, cr, dr,
							fmt.Sprintf("%.2f", agg.SuccessRate),
							agg.Messages.Mean, agg.Time.Mean,
							agg.MeanCrashed, agg.MeanDropped, agg.MeanDuplicated)
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
	return nil
}

// wireFaults renders the cell's fault plan in elect.ParseFaults syntax: the
// -faults base plan plus the sweep axes' crash/drop rates. FormatFloat 'g'
// with precision -1 round-trips float64 exactly, so the plan parsed back
// carries the very rates of the sweep axes.
func wireFaults(base string, crash, drop float64) string {
	var parts []string
	if s := strings.TrimSpace(base); s != "" {
		parts = append(parts, s)
	}
	if crash != 0 {
		parts = append(parts, "crash="+strconv.FormatFloat(crash, 'g', -1, 64))
	}
	if drop != 0 {
		parts = append(parts, "drop="+strconv.FormatFloat(drop, 'g', -1, 64))
	}
	return strings.Join(parts, ",")
}
