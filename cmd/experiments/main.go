// Command experiments reproduces Table 1 of "Improved Tradeoffs for Leader
// Election" (PODC 2023): it runs experiments E1..E13, prints each report
// with its pass/fail shape checks, and can emit the EXPERIMENTS.md document.
//
// Usage:
//
//	experiments                  # run everything, plain text
//	experiments -only E3,E10     # subset
//	experiments -quick           # smaller sweeps
//	experiments -markdown > EXPERIMENTS.md
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"cliquelect/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		quick    = fs.Bool("quick", false, "smaller sweeps (CI scale)")
		seed     = fs.Uint64("seed", 12345, "master seed")
		seeds    = fs.Int("seeds", 0, "repetitions per configuration (0 = default)")
		only     = fs.String("only", "", "comma-separated experiment IDs (default: all)")
		markdown = fs.Bool("markdown", false, "emit markdown (EXPERIMENTS.md body)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.Config{Quick: *quick, Seed: *seed, Seeds: *seeds}

	ids := experiments.IDs()
	if *only != "" {
		ids = nil
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if _, ok := experiments.Registry[id]; !ok {
				return fmt.Errorf("unknown experiment %q", id)
			}
			ids = append(ids, id)
		}
	}

	if *markdown {
		fmt.Fprintln(w, markdownHeader(cfg))
	}
	failures := 0
	for _, id := range ids {
		start := time.Now()
		rep, err := experiments.Registry[id](cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if *markdown {
			fmt.Fprint(w, rep.Markdown())
		} else {
			fmt.Fprintln(w, rep)
			fmt.Fprintf(w, "(%s in %.1fs)\n\n", id, time.Since(start).Seconds())
		}
		if !rep.Passed() {
			failures++
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) had failing checks", failures)
	}
	return nil
}

func markdownHeader(cfg experiments.Config) string {
	mode := "full"
	if cfg.Quick {
		mode = "quick"
	}
	return fmt.Sprintf(`# EXPERIMENTS — paper vs. measured

Reproduction of every row of Table 1 of *Improved Tradeoffs for Leader
Election* (Kutten, Robinson, Tan, Zhu; PODC 2023). Generated by
`+"`go run ./cmd/experiments -markdown`"+` (mode: %s, seed: %d).

Absolute numbers are simulator-specific; the reproduction targets are the
*shapes*: exact round counts, fitted message-complexity exponents, success
probabilities, and the crossovers between algorithms. Each section ends with
the automated checks that assert those shapes.
`, mode, cfg.Seed)
}
