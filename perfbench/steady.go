package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness report reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady repeats one workload over n seeds (cfg.seed, cfg.seed+1, ...),
// each in its own process, and prints every metric's median, quartiles
// and spread. The spread is the interquartile distance as a share of the
// median; an end-to-end metric is steady when its spread is under a third
// of its bound in BENCHMARK.json (setup_s is exempt from the spread rule).
func runSteady(cfg config, n int) error {
	if n < 2 {
		return fmt.Errorf("--steady needs at least 2 runs")
	}
	bounds := map[string]float64{}
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var spec benchSpec
		if err := json.Unmarshal(b, &spec); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for k := 0; k < n; k++ {
		seed := cfg.seed + uint64(k)
		cmd := exec.Command(self, "--workload", cfg.workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(cfg.seconds), "--trace", strconv.Itoa(btoi(cfg.trace)))
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %d: last line is not a result: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: run not correct (%d of %d failed):\n%s", seed, res.Failed, res.Attempted, out.String())
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Printf("# run %d/%d seed=%d done\n", k+1, n, seed)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s over %d seeds from %d, %d s each, trace=%d\n", cfg.workload, n, cfg.seed, cfg.seconds, btoi(cfg.trace))
	fmt.Printf("%-30s %12s %12s %12s %8s %6s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, name := range names {
		q1, med, q3 := quartiles(values[name])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
			if spread < 0 {
				spread = -spread
			}
		}
		verdict, boundTxt := "", "-"
		if b, ok := bounds[name]; ok {
			boundTxt = fmt.Sprintf("%.3f", b)
			switch {
			case name == "setup_s":
				verdict = "exempt"
			case spread < b/3:
				verdict = "steady"
			case spread <= b:
				verdict = "within bound, not steady"
			default:
				verdict = "NOISY"
			}
		}
		fmt.Printf("%-30s %12.6g %12.6g %12.6g %7.2f%% %6s  %s %s\n", name, q1, med, q3, 100*spread, boundTxt, verdict, units[name])
	}
	fmt.Println("per-seed values:")
	for _, name := range names {
		fmt.Printf("  %-28s", name)
		for _, v := range values[name] {
			fmt.Printf(" %.6g", v)
		}
		fmt.Println()
	}
	return nil
}
