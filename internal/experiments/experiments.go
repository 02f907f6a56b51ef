// Package experiments reproduces Table 1 of the paper: every row is an
// experiment E1..E13 that measures the corresponding algorithm or plays the
// corresponding lower-bound game, renders the measurements as a table, and
// self-checks the paper's shape claims (round counts, fitted message
// exponents, crossovers). cmd/experiments runs them all and emits
// EXPERIMENTS.md; bench_test.go wraps each in a testing.B benchmark.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"cliquelect/elect"
	"cliquelect/internal/stats"
)

// Config controls an experiment's scale.
type Config struct {
	// Quick shrinks sweeps for unit tests and CI.
	Quick bool
	// Seed is the master seed; every experiment derives all randomness
	// from it.
	Seed uint64
	// Seeds is the number of repetitions per configuration (default 10,
	// quick 4).
	Seeds int
}

func (c Config) seeds() int {
	if c.Seeds > 0 {
		return c.Seeds
	}
	if c.Quick {
		return 4
	}
	return 10
}

// nsFor returns the n sweep for an experiment, shrunk under Quick.
func (c Config) nsFor(full []int, quick []int) []int {
	if c.Quick {
		return quick
	}
	return full
}

// Check is one named pass/fail verification of a paper claim.
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

// Report is the outcome of one experiment.
type Report struct {
	ID         string
	Title      string
	PaperClaim string
	Table      *stats.Table
	Checks     []Check
	// Notes carries substitution caveats and measurement commentary.
	Notes []string
}

// Passed reports whether all checks passed.
func (r *Report) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// check appends a pass/fail check.
func (r *Report) check(name string, pass bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
}

// String renders the report as plain text.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	fmt.Fprintf(&b, "paper: %s\n\n", r.PaperClaim)
	if r.Table != nil {
		b.WriteString(r.Table.String())
		b.WriteByte('\n')
	}
	for _, c := range r.Checks {
		mark := "PASS"
		if !c.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "[%s] %-28s %s\n", mark, c.Name, c.Detail)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the report as a markdown section for EXPERIMENTS.md.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", r.ID, r.Title)
	fmt.Fprintf(&b, "**Paper claim.** %s\n\n", r.PaperClaim)
	if r.Table != nil {
		b.WriteString(r.Table.Markdown())
		b.WriteByte('\n')
	}
	b.WriteString("**Checks.**\n\n")
	for _, c := range r.Checks {
		mark := "✅"
		if !c.Pass {
			mark = "❌"
		}
		fmt.Fprintf(&b, "- %s `%s` — %s\n", mark, c.Name, c.Detail)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	b.WriteByte('\n')
	return b.String()
}

// bound is the named spec's paper bound on the clique: elect.Spec.Bound is
// the one home of every constant a Table-1 check holds a row to.
func bound(name string, n int, p elect.Params) (messages, rounds float64) {
	spec, err := elect.Lookup(name)
	if err != nil {
		panic(err) // experiments name registered specs only
	}
	return spec.Bound(n, p, 0, 0)
}

// Runner executes one experiment.
type Runner func(Config) (*Report, error)

// Registry maps experiment IDs to runners.
var Registry = map[string]Runner{
	"E1":  E1ComponentGame,
	"E2":  E2PortOpenCensus,
	"E3":  E3Tradeoff,
	"E4":  E4SmallID,
	"E5":  E5LasVegasLB,
	"E6":  E6LasVegas,
	"E7":  E7Sublinear,
	"E8":  E8AdvWake,
	"E9":  E9WakeupGame,
	"E10": E10AsyncTradeoff,
	"E11": E11AsyncLinear,
	"E12": E12AsyncAfekGafni,
	"E13": E13AfekGafni,
}

// IDs returns the experiment identifiers in order.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return out
}

// RunAll executes every experiment in ID order.
func RunAll(cfg Config) ([]*Report, error) {
	var out []*Report
	for _, id := range IDs() {
		rep, err := Registry[id](cfg)
		if err != nil {
			return out, fmt.Errorf("%s: %w", id, err)
		}
		out = append(out, rep)
	}
	return out, nil
}
