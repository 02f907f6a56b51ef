package elect

import (
	"bytes"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

// TestRunManyParallelMatchesSerial is the batch determinism contract the
// result cache's fingerprints depend on: the same grid fanned across the
// sharded work-stealing executor at any worker count must produce a
// BatchResult byte-identical (encoded wire form) to a serial reference that
// Runs each cell's CellOptions in grid order, outside the executor. Worker
// counts are chosen to exercise the shard shapes: one shard, even split,
// uneven split with stealing, and more workers than cells per shard.
func TestRunManyParallelMatchesSerial(t *testing.T) {
	for _, name := range []string{"tradeoff", "lasvegas", "asynctradeoff"} {
		spec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		batch := Batch{
			Ns:    []int{32, 64},
			Seeds: Seeds(100, 8),
			Options: []Option{
				WithParams(DefaultParams()),
			},
		}
		runs := make([]Result, GridSize(batch.Ns, batch.Seeds, nil))
		for idx := range runs {
			if runs[idx], err = Run(spec, CellOptions(&batch, batch.Ns, batch.Seeds, idx)...); err != nil {
				t.Fatal(err)
			}
		}
		a := assembleBatch(batch.Ns, batch.Seeds, nil, runs)
		aBytes, err := EncodeBatchResult(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3, 8, 16} {
			parallel := batch
			parallel.Workers = workers
			b, err := RunMany(spec, parallel)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a.Runs {
				if !reflect.DeepEqual(a.Runs[i], b.Runs[i]) {
					t.Fatalf("%s workers=%d: run %d diverges between serial and parallel:\n%+v\nvs\n%+v",
						name, workers, i, a.Runs[i], b.Runs[i])
				}
				if got, want := fmt.Sprintf("%#v", a.Runs[i]), fmt.Sprintf("%#v", b.Runs[i]); got != want {
					t.Fatalf("%s workers=%d: run %d not byte-identical", name, workers, i)
				}
			}
			if !reflect.DeepEqual(a.Aggregates, b.Aggregates) {
				t.Fatalf("%s workers=%d: aggregates diverge", name, workers)
			}
			bBytes, err := EncodeBatchResult(b)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(aBytes, bBytes) {
				t.Fatalf("%s workers=%d: encoded BatchResult differs from serial", name, workers)
			}
		}
	}
}

// TestRunShardedCoverage drives the executor directly: every cell must be
// claimed exactly once for shard shapes that force uneven splits, empty
// shards and stealing.
func TestRunShardedCoverage(t *testing.T) {
	for _, tc := range []struct{ total, workers int }{
		{1, 2}, {7, 3}, {16, 5}, {100, 7}, {8, 8},
	} {
		hits := make([]atomic.Int32, tc.total)
		claimed := runSharded(tc.total, tc.workers, func(idx int) {
			hits[idx].Add(1)
		}, func() bool { return false }, nil)
		if claimed != tc.total {
			t.Fatalf("total=%d workers=%d: claimed %d cells", tc.total, tc.workers, claimed)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("total=%d workers=%d: cell %d run %d times", tc.total, tc.workers, i, got)
			}
		}
	}
}

func TestRunManyOrderingAndAggregates(t *testing.T) {
	spec, err := Lookup("tradeoff")
	if err != nil {
		t.Fatal(err)
	}
	ns := []int{16, 32, 64}
	seeds := Seeds(7, 8)
	out, err := RunMany(spec, Batch{Ns: ns, Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Runs) != len(ns)*len(seeds) {
		t.Fatalf("%d runs", len(out.Runs))
	}
	for i, n := range ns {
		for j, seed := range seeds {
			r := out.Runs[i*len(seeds)+j]
			if r.N != n || r.Seed != seed {
				t.Fatalf("run[%d,%d] is n=%d seed=%d, want n=%d seed=%d",
					i, j, r.N, r.Seed, n, seed)
			}
			if !r.OK {
				t.Fatalf("deterministic run n=%d seed=%d failed", n, seed)
			}
		}
	}
	if len(out.Aggregates) != len(ns) {
		t.Fatalf("%d aggregates", len(out.Aggregates))
	}
	prev := 0.0
	for i, agg := range out.Aggregates {
		if agg.N != ns[i] || agg.Runs != len(seeds) || agg.Successes != len(seeds) {
			t.Fatalf("aggregate %d: %+v", i, agg)
		}
		if agg.Messages.Mean <= prev {
			t.Fatalf("message mean not increasing with n: %v", out.Aggregates)
		}
		prev = agg.Messages.Mean
		if agg.Time.Mean != 3 { // tradeoff k=3: 2k-3 = 3 rounds exactly
			t.Fatalf("n=%d: mean rounds = %v, want 3", agg.N, agg.Time.Mean)
		}
		if agg.Messages.Min > agg.Messages.Median || agg.Messages.Median > agg.Messages.Max {
			t.Fatalf("summary ordering broken: %+v", agg.Messages)
		}
	}
}

func TestRunManyDefaultsAndErrors(t *testing.T) {
	spec, err := Lookup("tradeoff")
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunMany(spec, Batch{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Runs) != 1 || out.Runs[0].N != 64 || out.Runs[0].Seed != 1 {
		t.Fatalf("defaults: %+v", out.Runs)
	}
	// Batch options override-ability: the batch grid wins over WithN/WithSeed
	// in Options.
	out, err = RunMany(spec, Batch{
		Ns: []int{32}, Seeds: []uint64{9},
		Options: []Option{WithN(1000), WithSeed(1000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Runs[0].N != 32 || out.Runs[0].Seed != 9 {
		t.Fatalf("grid did not override options: %+v", out.Runs[0])
	}
	// A bad parameter surfaces as an error naming the failing run.
	if _, err := RunMany(spec, Batch{Options: []Option{WithParams(Params{K: 1})}}); err == nil {
		t.Fatal("bad params accepted")
	}
}

func TestSeeds(t *testing.T) {
	got := Seeds(5, 3)
	if len(got) != 3 || got[0] != 5 || got[2] != 7 {
		t.Fatalf("Seeds(5,3) = %v", got)
	}
	if len(Seeds(0, 0)) != 0 {
		t.Fatal("Seeds(0,0) not empty")
	}
}

// TestLimitsAdmit pins the admission rule: every size at most MaxN, the
// product of the axes (each counting as at least one) at most MaxCells, a
// zero field no bound, and axes whose product would wrap an int refused
// rather than multiplied.
func TestLimitsAdmit(t *testing.T) {
	lim := Limits{MaxN: 1024, MaxCells: 100}
	huge := int(^uint(0) >> 1)
	for _, tc := range []struct {
		name string
		lim  Limits
		ns   []int
		axes []int
		ok   bool
	}{
		{"one run", lim, []int{1024}, nil, true},
		{"empty axes", lim, nil, []int{0, 0, 0}, true},
		{"at the limits", lim, []int{1024, 2}, []int{2, 50, 1}, true},
		{"n past MaxN", lim, []int{64, 1025}, []int{2, 1}, false},
		{"seeds past MaxCells", lim, []int{64}, []int{1, 101}, false},
		{"grid past MaxCells", lim, []int{64, 128}, []int{2, 10, 6}, false},
		{"range past MaxCells", lim, []int{64}, []int{101}, false},
		{"wrapping axes", lim, []int{64, 128}, []int{2, huge, huge}, false},
		{"no limits", Limits{}, []int{huge}, []int{huge, huge}, true},
	} {
		if err := tc.lim.Admit(tc.ns, tc.axes...); (err == nil) != tc.ok {
			t.Errorf("%s: Admit = %v, want ok %v", tc.name, err, tc.ok)
		}
	}
}
