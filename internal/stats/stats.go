// Package stats provides the measurement toolkit for the experiment harness:
// summary statistics over repeated seeded runs, log-log least-squares
// exponent fitting (used to verify the message-complexity exponents claimed
// in Table 1 of the paper), and plain-text table rendering for
// cmd/experiments and EXPERIMENTS.md.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds the usual summary statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
	P95    float64
}

// Summarize computes summary statistics. An empty sample yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Percentile(sorted, 50)
	s.P95 = Percentile(sorted, 95)
	return s
}

// Percentile returns the p-th percentile (0..100) of a sorted sample using
// linear interpolation between closest ranks. It panics on an empty sample.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Percentile of empty sample")
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// PowerFit is the result of fitting y = C * x^Alpha by least squares on
// (log x, log y).
type PowerFit struct {
	Alpha float64 // fitted exponent
	LogC  float64 // fitted log-constant
	R2    float64 // coefficient of determination in log space
}

// C returns the fitted multiplicative constant.
func (f PowerFit) C() float64 { return math.Exp(f.LogC) }

func (f PowerFit) String() string {
	return fmt.Sprintf("y ≈ %.3g·x^%.3f (R²=%.4f)", f.C(), f.Alpha, f.R2)
}

// FitPower fits y = C*x^alpha over the positive points of (xs, ys). It
// returns an error if fewer than two usable points remain or all xs
// coincide. This is how the harness recovers the message-complexity
// exponents (e.g. 1+2/(l+1) for Theorem 3.10, 3/2 for Theorem 4.1) from
// measured runs.
func FitPower(xs, ys []float64) (PowerFit, error) {
	if len(xs) != len(ys) {
		return PowerFit{}, fmt.Errorf("stats: FitPower length mismatch %d vs %d", len(xs), len(ys))
	}
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	if len(lx) < 2 {
		return PowerFit{}, fmt.Errorf("stats: FitPower needs >=2 positive points, have %d", len(lx))
	}
	slope, intercept, r2, err := linreg(lx, ly)
	if err != nil {
		return PowerFit{}, err
	}
	return PowerFit{Alpha: slope, LogC: intercept, R2: r2}, nil
}

// linreg is ordinary least squares of y on x, returning slope, intercept and
// R².
func linreg(xs, ys []float64) (slope, intercept, r2 float64, err error) {
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, 0, 0, fmt.Errorf("stats: all x values identical")
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	if syy == 0 {
		r2 = 1
	} else {
		r2 = sxy * sxy / (sxx * syy)
	}
	return slope, intercept, r2, nil
}

// Table renders rows of data as an aligned plain-text table.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are rendered with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavored markdown (used to generate
// EXPERIMENTS.md sections).
func (t *Table) Markdown() string {
	var b strings.Builder
	b.WriteString("| " + strings.Join(t.header, " | ") + " |\n")
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.header, ",") + "\n")
	for _, row := range t.rows {
		b.WriteString(strings.Join(row, ",") + "\n")
	}
	return b.String()
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
