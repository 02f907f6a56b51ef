package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sortedDurations returns a sorted copy, leaving the caller's order alone.
func sortedDurations(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rank returns the nearest-rank p-th percentile (0 < p <= 100) of sorted.
func rank(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// p50 is the median of ds.
func p50(ds []time.Duration) time.Duration { return rank(sortedDurations(ds), 50) }

// percentileLadder is the set of percentiles a tail figure is read at.
var percentileLadder = []float64{50, 90, 95, 99, 99.9}

// beyond counts the samples strictly above the nearest-rank p-th percentile.
func beyond(n int, p float64) int { return n - int(math.Ceil(p/100*float64(n))) }

// tail reads ds at want, or, when fewer than ten samples lie beyond want,
// at the highest ladder percentile below it that leaves ten; it returns the
// percentile used.
func tail(ds []time.Duration, want float64) (time.Duration, float64) {
	p := want
	if beyond(len(ds), p) < 10 {
		p = percentileLadder[0]
		for _, q := range percentileLadder {
			if q <= want && beyond(len(ds), q) >= 10 {
				p = q
			}
		}
	}
	return rank(sortedDurations(ds), p), p
}

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method of Python's statistics.quantiles(xs, n=4), which is
// how the benchmark's spread is judged. len(xs) must be at least 2.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		delta := i*m - j*4
		switch {
		case j < 1:
			out[i-1] = d[0]
		case j >= n:
			out[i-1] = d[n-1]
		default:
			out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
		}
	}
	return out[0], out[1], out[2]
}

// medianFloat is the median of xs (0 for none).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d)%2 == 1 {
		return d[len(d)/2]
	}
	return (d[len(d)/2-1] + d[len(d)/2]) / 2
}

// splitmix64 is the SplitMix64 finalizer: the benchmark's only source of
// randomness, so every input is a pure function of the seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns a deterministic 64-bit value for (seed, stream, i).
func draw(seed uint64, stream, i int) uint64 {
	return splitmix64(splitmix64(seed*8+uint64(stream)) ^ uint64(i))
}

// unit maps a draw to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Seed streams: each kind of generated input draws from its own stream, so
// the seeds of the hot working set, the cold traffic, the cold cache fill
// and the fleet grids can never collide.
const (
	streamHotSet = iota
	streamHotOps
	streamColdOps
	streamColdFill
	streamFleet
	streamSample
	streamShuffle
)

// seedBase returns a per-run, per-stream base for election seeds; cells
// number their seeds upward from it, so seeds within a stream are distinct
// and streams are 2^32 apart.
func seedBase(seed uint64, stream int) uint64 {
	return draw(seed, stream, -1) &^ (1<<32 - 1)
}

// zipfCDF returns the cumulative distribution of a zipf law with exponent s
// over ranks 0..n-1.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for r := 0; r < n; r++ {
		sum += math.Pow(float64(r+1), -s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}

// zipfCounts apportions total draws over n zipf ranks by largest remainder,
// so a block of total operations has exactly the zipf mix.
func zipfCounts(n int, s float64, total int) []int {
	cdf := zipfCDF(n, s)
	counts := make([]int, n)
	type rem struct {
		r    int
		frac float64
	}
	rems := make([]rem, n)
	left := total
	prev := 0.0
	for r := 0; r < n; r++ {
		exact := (cdf[r] - prev) * float64(total)
		prev = cdf[r]
		counts[r] = int(exact)
		left -= counts[r]
		rems[r] = rem{r, exact - float64(counts[r])}
	}
	sort.Slice(rems, func(i, j int) bool { return rems[i].frac > rems[j].frac })
	for i := 0; i < left; i++ {
		counts[rems[i].r]++
	}
	return counts
}

// pick returns the rank a uniform u in [0,1) falls on in cdf.
func pick(cdf []float64, u float64) int {
	return sort.SearchFloat64s(cdf, u)
}
