package experiments

import (
	"fmt"
	"math"

	"cliquelect/elect"
	"cliquelect/internal/core"
	"cliquelect/internal/ids"
	"cliquelect/internal/obs"
	"cliquelect/internal/simasync"
	"cliquelect/internal/stats"
	"cliquelect/internal/xrand"
)

// asyncPoint is one averaged async measurement.
type asyncPoint struct {
	msgs      float64 // total messages
	wakeMsgs  float64 // wake-up messages only (the n^{1+1/k} component)
	timeUnits float64
	successes int
}

// measureAsync runs an async factory `seeds` times and averages.
func measureAsync(n, seeds int, seed uint64, factory simasync.Factory,
	delays simasync.DelayPolicy, wake simasync.WakeSchedule) (asyncPoint, error) {
	rng := xrand.New(seed)
	var pt asyncPoint
	for s := 0; s < seeds; s++ {
		assign := ids.Random(ids.LogUniverse(n), n, rng)
		rounds := obs.NewRoundTrace(n, 0)
		res, err := simasync.Run(simasync.Config{
			N: n, IDs: assign, Seed: rng.Uint64(), Delays: delays, Wake: wake, Rounds: rounds,
		}, factory)
		if err != nil {
			return pt, err
		}
		pt.msgs += float64(res.Messages)
		for _, st := range rounds.Stats() {
			pt.wakeMsgs += float64(st.Kinds[core.KindWakeup])
		}
		pt.timeUnits += float64(res.TimeUnits)
		if res.Validate() == nil {
			pt.successes++
		}
	}
	f := float64(seeds)
	pt.msgs /= f
	pt.wakeMsgs /= f
	pt.timeUnits /= f
	return pt, nil
}

// E10AsyncTradeoff reproduces the headline Theorem 5.1 row: the first
// message/time tradeoff in the asynchronous clique.
func E10AsyncTradeoff(cfg Config) (*Report, error) {
	rep := &Report{
		ID:         "E10",
		Title:      "Asynchronous tradeoff (Algorithm 2 / Theorem 5.1)",
		PaperClaim: "for k in [2, O(log n / log log n)]: k+8 time units, O(n^{1+1/k}) messages, w.h.p.",
		Table:      stats.NewTable("k", "n", "mean msgs", "n^(1+1/k)", "mean time", "k+8", "success"),
	}
	ns := cfg.nsFor([]int{256, 512, 1024, 2048}, []int{128, 256, 512})
	for _, k := range []int{2, 3, 4} {
		var xs, wakeYs []float64
		for _, n := range ns {
			pt, err := measureAsync(n, cfg.seeds(), cfg.Seed+uint64(k),
				core.NewAsyncTradeoff(k), simasync.UnitDelay{}, simasync.SubsetAtZero([]int{0}))
			if err != nil {
				return nil, err
			}
			_, timeBound := bound("asynctradeoff", n, elect.Params{K: k})
			xs = append(xs, float64(n))
			wakeYs = append(wakeYs, pt.wakeMsgs)
			rep.Table.AddRow(k, n, pt.msgs, math.Pow(float64(n), 1+1/float64(k)), pt.timeUnits, int(timeBound),
				fmt.Sprintf("%d/%d", pt.successes, cfg.seeds()))
			rep.check(fmt.Sprintf("success k=%d n=%d", k, n), pt.successes >= cfg.seeds()-1,
				"%d/%d unique-leader runs", pt.successes, cfg.seeds())
			rep.check(fmt.Sprintf("time k=%d n=%d", k, n), pt.timeUnits <= timeBound,
				"mean %.2f time units vs paper k+8 = %.0f", pt.timeUnits, timeBound)
			// The election term on top of the spreading is o(n): Theta(log n)
			// candidates each contacting Theta(sqrt(n log n)) referees.
			election := pt.msgs - pt.wakeMsgs
			electionBound := 40*math.Sqrt(float64(n))*math.Pow(math.Log(float64(n)), 1.5) + 4*float64(n)
			rep.check(fmt.Sprintf("election o(n^{1+1/k}) k=%d n=%d", k, n), election <= electionBound,
				"election overhead %.0f <= %.0f", election, electionBound)
		}
		// Fit the exponent on the wake-up component, which carries the
		// theorem's n^{1+1/k}; the election term is additively separate and
		// verified above.
		want := 1 + 1/float64(k)
		fit, err := stats.FitPower(xs, wakeYs)
		if err != nil {
			return nil, err
		}
		rep.check(fmt.Sprintf("msg exponent k=%d", k), math.Abs(fit.Alpha-want) < 0.1,
			"fitted %.3f on wake-up messages vs paper %.3f (R²=%.3f)", fit.Alpha, want, fit.R2)
	}
	return rep, nil
}

// E11AsyncLinear reproduces the [14] asynchronous baseline row and the
// crossover against the tradeoff curve.
func E11AsyncLinear(cfg Config) (*Report, error) {
	rep := &Report{
		ID:         "E11",
		Title:      "Near-linear asynchronous baseline (substituted [14]-style)",
		PaperClaim: "[14]: O(n) messages, O(log² n) time; substituted baseline: O(n log n) messages, O(log n) time at k=Theta(log n/log log n)",
		Table:      stats.NewTable("n", "k", "mean msgs", "msgs/(n·log2 n)", "mean time", "success"),
	}
	ns := cfg.nsFor([]int{256, 512, 1024, 2048}, []int{128, 256, 512})
	for _, n := range ns {
		k := core.AsyncLinearK(n)
		pt, err := measureAsync(n, cfg.seeds(), cfg.Seed+uint64(n),
			core.NewAsyncLinear(n), simasync.UnitDelay{}, simasync.SubsetAtZero([]int{0}))
		if err != nil {
			return nil, err
		}
		nlogn := float64(n) * math.Log2(float64(n))
		msgBound, timeBound := bound("asynclinear", n, elect.Params{})
		rep.Table.AddRow(n, k, pt.msgs, pt.msgs/nlogn, pt.timeUnits,
			fmt.Sprintf("%d/%d", pt.successes, cfg.seeds()))
		rep.check(fmt.Sprintf("near-linear n=%d", n), pt.msgs <= msgBound,
			"%.0f msgs <= 24·n·log2 n", pt.msgs)
		rep.check(fmt.Sprintf("polylog time n=%d", n), pt.timeUnits <= timeBound,
			"%.1f time units <= 4·log2 n = %.1f", pt.timeUnits, timeBound)
	}
	// Crossover at fixed n: sweep k and verify messages decrease while time
	// increases, meeting the near-linear corner at k_max.
	n := ns[len(ns)-1]
	kMax := core.AsyncLinearK(n)
	var prevMsgs float64
	monotoneMsgs := true
	var k2Msgs, kMaxMsgs float64
	for k := 2; k <= kMax; k++ {
		pt, err := measureAsync(n, cfg.seeds(), cfg.Seed+uint64(100+k),
			core.NewAsyncTradeoff(k), simasync.UnitDelay{}, simasync.SubsetAtZero([]int{0}))
		if err != nil {
			return nil, err
		}
		if k > 2 && pt.msgs > prevMsgs*1.05 {
			monotoneMsgs = false
		}
		prevMsgs = pt.msgs
		if k == 2 {
			k2Msgs = pt.msgs
		}
		if k == kMax {
			kMaxMsgs = pt.msgs
		}
	}
	rep.check("tradeoff curve monotone", monotoneMsgs,
		"messages decrease in k at n=%d (within 5%% noise)", n)
	rep.check("crossover magnitude", k2Msgs > 2*kMaxMsgs,
		"k=2 spends %.0f vs k=%d spending %.0f: the curve meets the near-linear corner", k2Msgs, kMax, kMaxMsgs)
	rep.Notes = append(rep.Notes,
		"The genuine [14] construction reaches O(n) messages with O(log² n) time; the substituted baseline "+
			"reaches the same corner of the tradeoff space up to a log factor. See ARCHITECTURE.md, Substitutions.")
	return rep, nil
}

// E12AsyncAfekGafni reproduces the Theorem 5.14 row.
func E12AsyncAfekGafni(cfg Config) (*Report, error) {
	rep := &Report{
		ID:         "E12",
		Title:      "Asynchronized Afek-Gafni (Section 5.4 / Theorem 5.14)",
		PaperClaim: "deterministic, O(log n) time from simultaneous wake-up, O(n log n) messages, under arbitrary message delays",
		Table:      stats.NewTable("n", "scheduler", "mean msgs", "msgs/(n·log2 n)", "mean time", "time/log2 n", "success"),
	}
	ns := cfg.nsFor([]int{256, 1024}, []int{128, 256})
	policies := []struct {
		name   string
		policy simasync.DelayPolicy
	}{
		{"unit", simasync.UnitDelay{}},
		{"uniform", simasync.UniformDelay{Lo: 0.05}},
		{"skew", simasync.SkewDelay{Fast: 0.05, Mod: 3}},
	}
	for _, n := range ns {
		for _, pol := range policies {
			pt, err := measureAsync(n, cfg.seeds(), cfg.Seed+uint64(n),
				core.NewAsyncAfekGafni(), pol.policy, nil)
			if err != nil {
				return nil, err
			}
			nlogn := float64(n) * math.Log2(float64(n))
			msgBound, timeBound := bound("asyncafekgafni", n, elect.Params{})
			rep.Table.AddRow(n, pol.name, pt.msgs, pt.msgs/nlogn, pt.timeUnits,
				pt.timeUnits/math.Log2(float64(n)), fmt.Sprintf("%d/%d", pt.successes, cfg.seeds()))
			rep.check(fmt.Sprintf("deterministic success n=%d %s", n, pol.name), pt.successes == cfg.seeds(),
				"%d/%d runs elected exactly one leader (no probability)", pt.successes, cfg.seeds())
			rep.check(fmt.Sprintf("O(n log n) msgs n=%d %s", n, pol.name), pt.msgs <= msgBound,
				"%.0f <= 16·n·log2 n = %.0f", pt.msgs, msgBound)
			rep.check(fmt.Sprintf("O(log n) time n=%d %s", n, pol.name), pt.timeUnits <= timeBound,
				"%.1f time units <= 8·log2 n + 8", pt.timeUnits)
		}
	}
	rep.Notes = append(rep.Notes,
		"Answers (the simultaneous-wake-up half of) Afek and Gafni's open problem: the synchronous tradeoff "+
			"algorithm survives arbitrary message delays at unchanged asymptotic cost.")
	return rep, nil
}
