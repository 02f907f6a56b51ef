package experiments

import (
	"fmt"
	"math"

	"cliquelect/internal/core"
	"cliquelect/internal/ids"
	"cliquelect/internal/lowerbound"
	"cliquelect/internal/portmap"
	"cliquelect/internal/simsync"
	"cliquelect/internal/stats"
	"cliquelect/internal/xrand"
)

// portmapShared builds a SharedPerm mapping (used where an experiment needs
// an identical oblivious wiring across two runs).
func portmapShared(n int, rng *xrand.RNG) portmap.Map {
	return portmap.NewSharedPerm(n, rng)
}

// E5LasVegasLB reproduces the Theorem 3.16 lower-bound row: the silent-set
// audit passes the honest O(n) Las Vegas algorithm and catches a sublinear
// cheater.
func E5LasVegasLB(cfg Config) (*Report, error) {
	rep := &Report{
		ID:         "E5",
		Title:      "Las Vegas Omega(n) lower bound (Theorem 3.16, audit form)",
		PaperClaim: "any Las Vegas algorithm needs Omega(n) messages in expectation; o(n) implies composable silent halves",
		Table:      stats.NewTable("algorithm", "trials", "0-leader", ">1-leader", "silent-half runs", "mean msgs", "verdict"),
	}
	n, trials := 64, 300
	if cfg.Quick {
		trials = 150
	}
	cheater, err := lowerbound.CheckLasVegas(n, trials, lowerbound.NewCheatingLasVegas(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	verdict := func(failed bool) string {
		if failed {
			return "REFUTED"
		}
		return "consistent"
	}
	rep.Table.AddRow("cheating o(n) LV", cheater.Trials, cheater.ZeroLeader, cheater.MultiLeader,
		cheater.SilentHalf, cheater.MeanMessages, verdict(cheater.Failed()))
	honest, err := lowerbound.CheckLasVegas(n, trials/2, core.NewLasVegas(), cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	rep.Table.AddRow("Theorem 3.16 LV", honest.Trials, honest.ZeroLeader, honest.MultiLeader,
		honest.SilentHalf, honest.MeanMessages, verdict(honest.Failed()))
	rep.check("cheater refuted", cheater.Failed(),
		"sublinear LV candidate produced %d zero-leader and %d multi-leader runs",
		cheater.ZeroLeader, cheater.MultiLeader)
	rep.check("honest algorithm clean", !honest.Failed() && honest.ZeroLeader+honest.MultiLeader == 0,
		"no incorrect execution in %d trials", honest.Trials)
	rep.check("honest pays Omega(n)", honest.MeanMessages >= float64(n-1),
		"mean %.1f messages >= n-1 = %d", honest.MeanMessages, n-1)
	return rep, nil
}

// E6LasVegas reproduces the Theorem 3.16 upper-bound row.
func E6LasVegas(cfg Config) (*Report, error) {
	rep := &Report{
		ID:         "E6",
		Title:      "Las Vegas algorithm (Theorem 3.16)",
		PaperClaim: "3 rounds (w.h.p.), O(n) messages (w.h.p.), never wrong",
		Table:      stats.NewTable("n", "mean msgs", "msgs/n", "3-round rate", "correct"),
	}
	ns := cfg.nsFor([]int{256, 1024, 4096}, []int{128, 512})
	for _, n := range ns {
		rng := xrand.New(cfg.Seed + uint64(n))
		var msgs float64
		three, correct := 0, 0
		for s := 0; s < cfg.seeds(); s++ {
			assign := ids.Random(ids.LogUniverse(n), n, rng)
			res, err := simsync.Run(simsync.Config{N: n, IDs: assign, Seed: rng.Uint64()}, core.NewLasVegas())
			if err != nil {
				return nil, err
			}
			msgs += float64(res.Messages)
			if res.Rounds == 3 {
				three++
			}
			if res.Validate() == nil {
				correct++
			}
		}
		msgs /= float64(cfg.seeds())
		ratio := msgs / float64(n)
		rep.Table.AddRow(n, msgs, ratio,
			float64(three)/float64(cfg.seeds()), fmt.Sprintf("%d/%d", correct, cfg.seeds()))
		rep.check(fmt.Sprintf("never wrong n=%d", n), correct == cfg.seeds(),
			"%d/%d runs elected exactly one leader", correct, cfg.seeds())
		// O(n) with the Omega(n) floor: the ratio msgs/n must sit in a
		// constant band (>= the announcement, <= a small constant, since
		// the MC rounds cost o(n)).
		rep.check(fmt.Sprintf("Theta(n) messages n=%d", n), ratio >= 0.9 && ratio <= 8,
			"msgs/n = %.2f in [0.9, 8]", ratio)
	}
	return rep, nil
}

// E7Sublinear reproduces the Kutten et al. [16] Monte Carlo row.
func E7Sublinear(cfg Config) (*Report, error) {
	rep := &Report{
		ID:         "E7",
		Title:      "Sublinear Monte Carlo baseline (Kutten et al. [16])",
		PaperClaim: "2 rounds, O(sqrt(n)·log^{3/2} n) messages, succeeds w.h.p. — a polynomial gap below the Las Vegas Omega(n)",
		Table:      stats.NewTable("n", "mean msgs", "msgs/(sqrt(n)·ln^1.5 n)", "success rate", "msgs/n"),
	}
	ns := cfg.nsFor([]int{1024, 4096, 16384, 65536}, []int{1024, 4096})
	var xs, ys []float64
	for _, n := range ns {
		rng := xrand.New(cfg.Seed + uint64(n))
		var msgs float64
		succ := 0
		for s := 0; s < cfg.seeds(); s++ {
			assign := ids.Random(ids.LogUniverse(n), n, rng)
			res, err := simsync.Run(simsync.Config{N: n, IDs: assign, Seed: rng.Uint64()}, core.NewSublinear())
			if err != nil {
				return nil, err
			}
			msgs += float64(res.Messages)
			if res.UniqueLeader() >= 0 {
				succ++
			}
		}
		msgs /= float64(cfg.seeds())
		norm := math.Sqrt(float64(n)) * math.Pow(math.Log(float64(n)), 1.5)
		xs = append(xs, float64(n))
		ys = append(ys, msgs/math.Pow(math.Log(float64(n)), 1.5))
		rep.Table.AddRow(n, msgs, msgs/norm, float64(succ)/float64(cfg.seeds()), msgs/float64(n))
		rep.check(fmt.Sprintf("success w.h.p. n=%d", n), succ >= cfg.seeds()-1,
			"%d/%d unique-leader runs", succ, cfg.seeds())
	}
	fit, err := stats.FitPower(xs, ys)
	if err != nil {
		return nil, err
	}
	rep.check("sqrt(n) exponent", math.Abs(fit.Alpha-0.5) < 0.15,
		"fitted exponent of msgs/ln^{1.5} n: %.3f vs paper 0.5 (R²=%.3f)", fit.Alpha, fit.R2)
	if len(ns) > 0 && ns[len(ns)-1] >= 16384 {
		// The gap statement of Theorem 3.16: Monte Carlo beats the Las Vegas
		// floor of n-1 messages (the announcement alone), and the ratio
		// widens polynomially with n.
		last := len(ns) - 1
		msgsLast := ys[last] * math.Pow(math.Log(float64(ns[last])), 1.5)
		firstRatio := ys[0] * math.Pow(math.Log(float64(ns[0])), 1.5) / float64(ns[0])
		lastRatio := msgsLast / float64(ns[last])
		rep.check("polynomial gap vs Las Vegas", msgsLast < float64(ns[last]-1) && lastRatio < firstRatio,
			"at n=%d: %.0f msgs below the Las Vegas floor n-1=%d; msgs/n ratio shrinking %.2f -> %.2f",
			ns[last], msgsLast, ns[last]-1, firstRatio, lastRatio)
	}
	return rep, nil
}

// E8AdvWake reproduces the Theorem 4.1 row.
func E8AdvWake(cfg Config) (*Report, error) {
	rep := &Report{
		ID:         "E8",
		Title:      "2-round algorithm under adversarial wake-up (Theorem 4.1)",
		PaperClaim: "2 rounds, O(n^{3/2}·log(1/eps)) expected messages, success >= 1-eps-1/n",
		Table:      stats.NewTable("n", "wake set", "mean msgs", "msgs/n^1.5", "success rate"),
	}
	const eps = 1.0 / 16
	ns := cfg.nsFor([]int{256, 1024, 4096}, []int{256, 1024})
	var xs, ys []float64
	for _, n := range ns {
		rng := xrand.New(cfg.Seed + uint64(n))
		for _, wakeAll := range []bool{false, true} {
			var msgs float64
			succ := 0
			trials := cfg.seeds() * 2
			if trials < 24 {
				trials = 24 // the success check is Bernoulli; small samples are too noisy
			}
			for s := 0; s < trials; s++ {
				assign := ids.Random(ids.LogUniverse(n), n, rng)
				var wake []int // nil: every node
				if !wakeAll {
					wake = []int{int(rng.Uint64n(uint64(n)))}
				}
				res, err := simsync.Run(simsync.Config{
					N: n, IDs: assign, Seed: rng.Uint64(), Wake: wake,
				}, core.NewAdvWake2Round(eps))
				if err != nil {
					return nil, err
				}
				msgs += float64(res.Messages)
				if res.UniqueLeader() >= 0 && res.AllAwake() {
					succ++
				}
			}
			msgs /= float64(trials)
			label := "single root"
			if wakeAll {
				label = "all roots"
				xs = append(xs, float64(n))
				ys = append(ys, msgs)
			}
			rate := float64(succ) / float64(trials)
			rep.Table.AddRow(n, label, msgs, msgs/math.Pow(float64(n), 1.5), rate)
			rep.check(fmt.Sprintf("success n=%d %s", n, label), rate >= 0.78,
				"rate %.2f vs paper floor %.2f (finite-sample slack)", rate, 1-eps-1.0/float64(n))
		}
	}
	fit, err := stats.FitPower(xs, ys)
	if err != nil {
		return nil, err
	}
	rep.check("n^{3/2} exponent", math.Abs(fit.Alpha-1.5) < 0.12,
		"fitted %.3f vs paper 1.5 (R²=%.3f)", fit.Alpha, fit.R2)
	return rep, nil
}

// E9WakeupGame reproduces the Theorem 4.2 lower-bound row.
func E9WakeupGame(cfg Config) (*Report, error) {
	rep := &Report{
		ID:         "E9",
		Title:      "Omega(n^{3/2}) wake-up lower bound (Theorem 4.2, sweep form)",
		PaperClaim: "2-round wake-up with constant success needs Omega(n^{3/2}) expected messages",
		Table:      stats.NewTable("beta", "fan-out", "mean msgs", "msgs/n^1.5", "wake-fail rate"),
	}
	n, trials := 1024, 30
	if cfg.Quick {
		n, trials = 256, 15
	}
	betas := []float64{0.125, 0.25, 0.5, 1, 2, 4}
	res, err := lowerbound.WakeupGame(n, trials, betas, cfg.Seed)
	if err != nil {
		return nil, err
	}
	for _, p := range res.Points {
		rep.Table.AddRow(p.Beta, p.Fanout, p.MeanMessages, p.MeanMessages/res.Envelope, p.WakeFailRate)
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	rep.check("cheap protocols fail", first.WakeFailRate >= 0.9,
		"beta=%.3f fails to wake everyone in %.0f%% of runs", first.Beta, 100*first.WakeFailRate)
	rep.check("reliable wake-up achieved", last.WakeFailRate <= 0.15,
		"beta=%.1f fail rate %.2f", last.Beta, last.WakeFailRate)
	rep.check("reliability costs ~n^{3/2}", last.MeanMessages >= res.Envelope/16,
		"reliable point spends %.0f vs envelope %.0f", last.MeanMessages, res.Envelope)
	monotone := true
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].MeanMessages < res.Points[i-1].MeanMessages {
			monotone = false
		}
	}
	rep.check("cost monotone in beta", monotone, "message cost increases with fan-out")
	rep.Notes = append(rep.Notes,
		"Theorem 4.1's algorithm (E8) sits on this envelope from above; the sweep shows wake-up failures "+
			"appear exactly when spending drops below it — the two sides of the tight bound.")
	return rep, nil
}
