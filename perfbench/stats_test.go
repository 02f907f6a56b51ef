package main

import "testing"

// The spread the benchmark is judged by uses Python's
// statistics.quantiles(xs, n=4); these expectations are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2.5, 1.0, 4.0}, 1.0, 2.5, 4.0},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, 2.0, 4.0, 5.0},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

// A cold block must hold every size class in zipf proportion and sum to
// its length, or the realised mix would drift between runs.
func TestZipfCounts(t *testing.T) {
	got := zipfCounts(4, 1.0, 60)
	want := []int{29, 14, 10, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("zipfCounts(4, 1.0, 60) = %v, want %v", got, want)
		}
	}
}
