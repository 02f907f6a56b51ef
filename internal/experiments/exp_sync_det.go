package experiments

import (
	"fmt"
	"math"

	"cliquelect/internal/core"
	"cliquelect/internal/ids"
	"cliquelect/internal/lowerbound"
	"cliquelect/internal/simsync"
	"cliquelect/internal/stats"
	"cliquelect/internal/trace"
	"cliquelect/internal/xrand"
)

// meanMessages runs a sync factory `seeds` times and returns mean messages,
// mean rounds, and the success (unique-leader) count.
func meanMessages(n, seeds int, seed uint64, factory simsync.Factory,
	mkIDs func(*xrand.RNG) ids.Assignment, wake simsync.WakePolicy) (msgs, rounds float64, successes int, err error) {
	rng := xrand.New(seed)
	var totalMsgs, totalRounds float64
	for s := 0; s < seeds; s++ {
		assign := mkIDs(rng)
		res, rerr := simsync.Run(simsync.Config{
			N: n, IDs: assign, Seed: rng.Uint64(), Wake: wake,
		}, factory)
		if rerr != nil {
			return 0, 0, 0, rerr
		}
		totalMsgs += float64(res.Messages)
		totalRounds += float64(res.Rounds)
		if res.UniqueLeader() >= 0 {
			successes++
		}
	}
	return totalMsgs / float64(seeds), totalRounds / float64(seeds), successes, nil
}

func logIDs(n int) func(*xrand.RNG) ids.Assignment {
	return func(rng *xrand.RNG) ids.Assignment {
		return ids.Random(ids.LogUniverse(n), n, rng)
	}
}

// E3Tradeoff reproduces the Theorem 3.10 row: l rounds and
// O(l·n^{1+2/(l+1)}) messages for the paper's improved deterministic
// algorithm.
func E3Tradeoff(cfg Config) (*Report, error) {
	rep := &Report{
		ID:         "E3",
		Title:      "Improved deterministic tradeoff (Theorem 3.10)",
		PaperClaim: "for any odd l >= 3: l rounds, O(l·n^{1+2/(l+1)}) messages",
		Table:      stats.NewTable("l", "n", "mean msgs", "rounds", "n^(1+2/(l+1))"),
	}
	ns := cfg.nsFor([]int{256, 512, 1024, 2048, 4096}, []int{128, 256, 512})
	for _, l := range []int{3, 5, 7} {
		k := (l + 3) / 2
		var xs, ys []float64
		roundsOK := true
		for _, n := range ns {
			msgs, rounds, succ, err := meanMessages(n, cfg.seeds(), cfg.Seed+uint64(l), core.NewTradeoff(k), logIDs(n), nil)
			if err != nil {
				return nil, err
			}
			if succ != cfg.seeds() {
				return nil, fmt.Errorf("E3: deterministic run failed at n=%d l=%d", n, l)
			}
			if int(rounds) != l {
				roundsOK = false
			}
			xs = append(xs, float64(n))
			ys = append(ys, msgs)
			rep.Table.AddRow(l, n, msgs, rounds, math.Pow(float64(n), 1+2/float64(l+1)))
		}
		want := 1 + 2/float64(l+1)
		fit, err := stats.FitPower(xs, ys)
		if err != nil {
			return nil, err
		}
		rep.check(fmt.Sprintf("rounds==l (l=%d)", l), roundsOK, "every run finished in exactly %d rounds", l)
		rep.check(fmt.Sprintf("msg exponent (l=%d)", l), math.Abs(fit.Alpha-want) < 0.16,
			"fitted %.3f vs paper %.3f (R²=%.3f)", fit.Alpha, want, fit.R2)
	}
	return rep, nil
}

// E13AfekGafni reproduces the Afek-Gafni [1] baseline row (2k rounds,
// O(k·n^{1+1/k}) messages) and the paper's headline crossover: at an equal
// round budget the Theorem 3.10 algorithm is polynomially cheaper.
func E13AfekGafni(cfg Config) (*Report, error) {
	rep := &Report{
		ID:         "E13",
		Title:      "Afek-Gafni deterministic baseline [1]",
		PaperClaim: "for any l = 2k >= 2: l rounds, O(l·n^{1+2/l}) messages; Theorem 3.10 beats it at equal rounds",
		Table:      stats.NewTable("k", "n", "mean msgs", "rounds", "n^(1+1/k)"),
	}
	// Larger n for the fit: AG's ceil(n^{i/k}) fan-outs have strong rounding
	// effects at small n that flatten the apparent exponent.
	ns := cfg.nsFor([]int{512, 1024, 2048, 4096, 8192}, []int{256, 1024, 4096})
	for _, k := range []int{2, 3, 4} {
		var xs, ys []float64
		roundsOK := true
		for _, n := range ns {
			msgs, rounds, succ, err := meanMessages(n, cfg.seeds(), cfg.Seed+uint64(k), core.NewAfekGafni(k), logIDs(n), nil)
			if err != nil {
				return nil, err
			}
			if succ != cfg.seeds() {
				return nil, fmt.Errorf("E13: failed at n=%d k=%d", n, k)
			}
			if int(rounds) > 2*k {
				roundsOK = false
			}
			xs = append(xs, float64(n))
			ys = append(ys, msgs)
			rep.Table.AddRow(k, n, msgs, rounds, math.Pow(float64(n), 1+1/float64(k)))
		}
		want := 1 + 1/float64(k)
		fit, err := stats.FitPower(xs, ys)
		if err != nil {
			return nil, err
		}
		rep.check(fmt.Sprintf("rounds<=2k (k=%d)", k), roundsOK, "every run within %d rounds", 2*k)
		rep.check(fmt.Sprintf("msg exponent (k=%d)", k), math.Abs(fit.Alpha-want) < 0.2,
			"fitted %.3f vs paper %.3f (R²=%.3f)", fit.Alpha, want, fit.R2)
	}
	// Crossover: Tradeoff with k rounds 2k-3 vs AfekGafni with k-1
	// iterations (2k-2 rounds, one MORE than ours).
	nBig := ns[len(ns)-1]
	for _, k := range []int{3, 4} {
		ours, _, _, err := meanMessages(nBig, cfg.seeds(), cfg.Seed, core.NewTradeoff(k), logIDs(nBig), nil)
		if err != nil {
			return nil, err
		}
		ag, _, _, err := meanMessages(nBig, cfg.seeds(), cfg.Seed, core.NewAfekGafni(k-1), logIDs(nBig), nil)
		if err != nil {
			return nil, err
		}
		rep.check(fmt.Sprintf("crossover k=%d (n=%d)", k, nBig), ours < ag,
			"Tradeoff %.0f msgs in %d rounds vs Afek-Gafni %.0f msgs in %d rounds",
			ours, 2*k-3, ag, 2*k-2)
	}
	return rep, nil
}

// E1ComponentGame reproduces the Theorem 3.8 lower-bound row by playing the
// Lemma 3.9 adversary against the Theorem 3.10 algorithm.
func E1ComponentGame(cfg Config) (*Report, error) {
	rep := &Report{
		ID:         "E1",
		Title:      "Tradeoff lower bound via the component game (Theorem 3.8 / Lemma 3.9)",
		PaperClaim: "any deterministic algorithm sending <= n·f messages needs > (log2(n)-1)/(log2(f)+1) + 1 rounds",
		Table:      stats.NewTable("n", "f", "predicted rounds", "stalled", "budget exceeded@", "cap violated@", "msgs"),
	}
	ns := cfg.nsFor([]int{256, 1024}, []int{256})
	for _, n := range ns {
		// Measure the algorithm's own budget, then play at that budget plus
		// a couple of tighter ones.
		assign := ids.Random(ids.LogUniverse(n), n, xrand.New(cfg.Seed))
		plain, err := simsync.Run(simsync.Config{N: n, IDs: assign, Seed: 1}, core.NewTradeoff(4))
		if err != nil {
			return nil, err
		}
		fActual := float64(plain.Messages) / float64(n)
		for _, f := range []float64{2, fActual / 4, fActual} {
			if f <= 1 {
				continue
			}
			game, err := lowerbound.ComponentGame(n, f, core.NewTradeoff(4), cfg.Seed+7)
			if err != nil {
				return nil, err
			}
			rep.Table.AddRow(n, f, game.PredictedRounds, game.StalledRounds(),
				game.BudgetExceededAt, game.CapViolatedAt, game.Result.Messages)
			ok := true
			for _, cr := range game.Rounds[1:] {
				if game.BudgetExceededAt != 0 && cr.Round >= game.BudgetExceededAt {
					break
				}
				if cr.MaxComponent > cr.Cap {
					ok = false
				}
			}
			rep.check(fmt.Sprintf("caps hold pre-budget n=%d f=%.1f", n, f), ok,
				"components stayed within 2^sigma_r until the budget broke")
			if f == fActual {
				rep.check(fmt.Sprintf("theorem consistency n=%d", n),
					float64(plain.Rounds)+1 >= game.PredictedRounds,
					"measured %d rounds vs predicted floor %.2f at the algorithm's own f=%.1f",
					plain.Rounds, game.PredictedRounds, fActual)
				rep.check(fmt.Sprintf("adversary stalls n=%d", n), game.StalledRounds() >= 1,
					"adversary contained components for %d round(s)", game.StalledRounds())
			}
		}
	}
	rep.Notes = append(rep.Notes,
		"The single-execution game cannot re-choose ID assignments the way Lemma 3.9's pruning does; "+
			"instead it reports the first round at which some block overspends its allowance mu_r — after "+
			"which cap violations are expected and legitimate.")
	return rep, nil
}

// E2PortOpenCensus reproduces the Theorem 3.11 / Theorem 3.15 pair: with a
// large ID space, time-bounded deterministic algorithms open Omega(n log n)
// ports; with a linear ID space, Algorithm 1 beats n·log n — the ID-space
// hypothesis is necessary.
func E2PortOpenCensus(cfg Config) (*Report, error) {
	rep := &Report{
		ID:         "E2",
		Title:      "Omega(n log n) port-open census vs the small-ID escape (Theorems 3.11 & 3.15)",
		PaperClaim: "time-bounded algorithms on large ID spaces send Omega(n log n) messages; linear ID spaces allow o(n log n)",
		Table:      stats.NewTable("n", "alg", "ID space", "port opens", "opens/(n·log2 n)"),
	}
	ns := cfg.nsFor([]int{256, 512, 1024}, []int{128, 256})
	var tradeoffRatios, smallIDRatios []float64
	for _, n := range ns {
		// (a) The Theorem 3.10 algorithm at its message-lean extreme
		// k-1 = log2(n) (fan-outs double per iteration), large ID space.
		k := core.CeilLog2(n) + 1
		rec := trace.NewRecorder(n)
		assign := ids.Random(ids.LogUniverse(n), n, xrand.New(cfg.Seed+uint64(n)))
		if _, err := simsync.Run(simsync.Config{
			N: n, IDs: assign, Seed: 2, Trace: rec,
		}, core.NewTradeoff(k)); err != nil {
			return nil, err
		}
		nlogn := float64(n) * float64(core.CeilLog2(n))
		r1 := float64(rec.TotalPortOpens()) / nlogn
		tradeoffRatios = append(tradeoffRatios, r1)
		rep.Table.AddRow(n, "tradeoff k=log2(n)+1", "Theta(n log n)", rec.TotalPortOpens(), r1)

		// (b) Algorithm 1 with d=2, g=1 on the linear ID space.
		rec2 := trace.NewRecorder(n)
		assign2 := ids.Random(ids.LinearUniverse(n, 1), n, xrand.New(cfg.Seed+uint64(n)+1))
		if _, err := simsync.Run(simsync.Config{
			N: n, IDs: assign2, Seed: 3, Trace: rec2,
		}, core.NewSmallID(2, 1)); err != nil {
			return nil, err
		}
		r2 := float64(rec2.TotalPortOpens()) / nlogn
		smallIDRatios = append(smallIDRatios, r2)
		rep.Table.AddRow(n, "smallid d=2 g=1", "{1..n}", rec2.TotalPortOpens(), r2)
	}
	minTr := tradeoffRatios[0]
	for _, r := range tradeoffRatios {
		if r < minTr {
			minTr = r
		}
	}
	rep.check("large-ID opens ~ n log n", minTr > 0.25,
		"opens/(n·log2 n) stayed >= %.2f across n (Omega(n log n) shape)", minTr)
	decreasing := true
	for i := 1; i < len(smallIDRatios); i++ {
		if smallIDRatios[i] >= smallIDRatios[i-1] {
			decreasing = false
		}
	}
	rep.check("small-ID opens = o(n log n)", decreasing && smallIDRatios[len(smallIDRatios)-1] < minTr,
		"ratio decreasing to %.3f, below the large-ID floor %.2f", smallIDRatios[len(smallIDRatios)-1], minTr)

	// Lemma 3.12 spot check: the single-send transform preserves leader and
	// message count (the census is defined over single-send algorithms).
	n := ns[0]
	assign := ids.Random(ids.LogUniverse(n), n, xrand.New(cfg.Seed+99))
	pm := func() *xrand.RNG { return xrand.New(123) }
	direct, err := simsync.Run(simsync.Config{N: n, IDs: assign, Seed: 4,
		Ports: portmapShared(n, pm())}, core.NewTradeoff(3))
	if err != nil {
		return nil, err
	}
	wrapped, err := simsync.Run(simsync.Config{N: n, IDs: assign, Seed: 4,
		Ports: portmapShared(n, pm()), MaxRounds: n * (direct.Rounds + 2)},
		lowerbound.NewSingleSend(core.NewTradeoff(3)))
	if err != nil {
		return nil, err
	}
	rep.check("single-send equivalence (Lemma 3.12)",
		direct.UniqueLeader() == wrapped.UniqueLeader() && direct.Messages == wrapped.Messages,
		"leader %d/%d, msgs %d/%d, rounds %d vs %d (<= n·T = %d)",
		direct.UniqueLeader(), wrapped.UniqueLeader(), direct.Messages, wrapped.Messages,
		direct.Rounds, wrapped.Rounds, n*direct.Rounds)
	rep.Notes = append(rep.Notes,
		"Theorem 3.11's full hypothesis needs an ID universe of size n·log²n·T^{log n-1}, beyond honest "+
			"instantiation; the census instantiates the mechanism on the Theta(n log n) universe that "+
			"Theorem 3.8 covers. See ARCHITECTURE.md, Substitutions.")
	return rep, nil
}

// E4SmallID reproduces the Theorem 3.15 row.
func E4SmallID(cfg Config) (*Report, error) {
	rep := &Report{
		ID:         "E4",
		Title:      "Small-ID-universe algorithm (Algorithm 1 / Theorem 3.15)",
		PaperClaim: "IDs from {1..n·g}: ceil(n/d) rounds, <= n·d·g messages; sublinear time with o(n log n) messages for g=O(1)",
		Table:      stats.NewTable("n", "d", "g", "mean msgs", "bound n·d·g", "mean rounds", "bound ceil(n/d)"),
	}
	n := 1024
	if cfg.Quick {
		n = 256
	}
	type pg struct{ d, g int }
	configs := []pg{{2, 1}, {4, 2}, {intSqrt(n), 1}, {n / core.CeilLog2(n), 1}}
	for _, c := range configs {
		var worstMsgs, worstRounds float64
		rng := xrand.New(cfg.Seed + uint64(c.d))
		for s := 0; s < cfg.seeds(); s++ {
			// Spread assignment: adversarially dense windows.
			assign := ids.Spread(ids.LinearUniverse(n, c.g), n)
			if s%2 == 1 {
				assign = ids.Random(ids.LinearUniverse(n, c.g), n, rng)
			}
			res, err := simsync.Run(simsync.Config{N: n, IDs: assign, Seed: rng.Uint64()}, core.NewSmallID(c.d, c.g))
			if err != nil {
				return nil, err
			}
			if err := res.Validate(); err != nil {
				return nil, fmt.Errorf("E4: %w", err)
			}
			if m := float64(res.Messages); m > worstMsgs {
				worstMsgs = m
			}
			if r := float64(res.Rounds); r > worstRounds {
				worstRounds = r
			}
		}
		msgBound := float64(n) * float64(c.d) * float64(c.g)
		roundBound := float64(core.CeilDiv(n, c.d))
		rep.Table.AddRow(n, c.d, c.g, worstMsgs, msgBound, worstRounds, roundBound)
		rep.check(fmt.Sprintf("bounds d=%d g=%d", c.d, c.g),
			worstMsgs <= msgBound && worstRounds <= roundBound,
			"worst msgs %.0f <= %.0f, worst rounds %.0f <= %.0f", worstMsgs, msgBound, worstRounds, roundBound)
	}
	// Sublinear-time o(n log n) witness: d=2, g=1.
	rng := xrand.New(cfg.Seed)
	assign := ids.Random(ids.LinearUniverse(n, 1), n, rng)
	res, err := simsync.Run(simsync.Config{N: n, IDs: assign, Seed: rng.Uint64()}, core.NewSmallID(2, 1))
	if err != nil {
		return nil, err
	}
	nlogn := float64(n) * float64(core.CeilLog2(n))
	rep.check("o(n log n) with sublinear time", float64(res.Messages) < nlogn && res.Rounds <= n/2,
		"%d msgs < n·log2 n = %.0f in %d rounds (<= n/2)", res.Messages, nlogn, res.Rounds)
	return rep, nil
}

func intSqrt(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}
