package elect

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestWithTopologyRuns drives the public API across every generated family:
// each run elects a leader, reports the graph shape, and reproduces
// byte-identically from the same seed.
func TestWithTopologyRuns(t *testing.T) {
	spec, err := Lookup("kuttenmoses")
	if err != nil {
		t.Fatal(err)
	}
	for _, topoSpec := range []string{"ring", "torus", "rreg:d=8", "power:m=4", "edges:0-1,1-2,2-3,3-0"} {
		n := 64
		if strings.HasPrefix(topoSpec, "edges:") {
			n = 4
		}
		run := func() Result {
			res, err := Run(spec, WithN(n), WithSeed(11), WithTopology(topoSpec))
			if err != nil {
				t.Fatalf("%s: %v", topoSpec, err)
			}
			return res
		}
		res := run()
		if !res.OK {
			t.Fatalf("%s: election failed: %+v", topoSpec, res)
		}
		if res.Topo == "" || res.Diameter <= 0 || res.GraphEdges <= 0 {
			t.Fatalf("%s: graph metadata missing: topo=%q diameter=%d edges=%d",
				topoSpec, res.Topo, res.Diameter, res.GraphEdges)
		}
		if again := run(); !reflect.DeepEqual(res, again) {
			t.Fatalf("%s: same seed produced different results", topoSpec)
		}
	}
}

func TestWithTopologyCliqueIsDefault(t *testing.T) {
	// "clique" and "" are the same configuration: identical results,
	// identical fingerprints, no graph metadata.
	spec, err := Lookup("tradeoff")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(spec, WithN(128), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	aliased, err := Run(spec, WithN(128), WithSeed(3), WithTopology("clique"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, aliased) {
		t.Fatal("WithTopology(\"clique\") changed the result")
	}
	if aliased.Topo != "" || aliased.Diameter != 0 || aliased.GraphEdges != 0 {
		t.Fatalf("clique run carries graph metadata: %+v", aliased)
	}
	fpPlain, err := Fingerprint(spec, WithN(128), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	fpAliased, err := Fingerprint(spec, WithN(128), WithSeed(3), WithTopology("clique"))
	if err != nil {
		t.Fatal(err)
	}
	if fpPlain != fpAliased {
		t.Fatalf("clique alias changed the fingerprint: %s vs %s", fpPlain, fpAliased)
	}
}

func TestWithTopologyErrors(t *testing.T) {
	kutten, err := Lookup("kuttenmoses")
	if err != nil {
		t.Fatal(err)
	}
	tradeoff, err := Lookup("tradeoff")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(tradeoff, WithN(64), WithTopology("ring")); err == nil {
		t.Fatal("clique-only spec accepted a ring")
	} else if !strings.Contains(err.Error(), "clique") {
		t.Fatalf("error should list supported topologies: %v", err)
	}
	if _, err := Run(kutten, WithN(64), WithTopology("lattice")); err == nil {
		t.Fatal("unknown topology spec accepted")
	}
	if _, err := Run(kutten, WithN(64), WithTopology("ring"), WithEngine(EngineLive)); err == nil {
		t.Fatal("live engine accepted a topology")
	}
}

// TestTopologyFingerprintsDistinct is the fingerprint-discipline satellite:
// across topologies, sizes and seeds, no two distinct configurations may
// share a cache key (a collision would replay the wrong run's bytes).
func TestTopologyFingerprintsDistinct(t *testing.T) {
	spec, err := Lookup("kpprt")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	for _, topoSpec := range []string{"", "ring", "torus", "rreg:d=4", "rreg:d=8", "power:m=2"} {
		for _, n := range []int{32, 64} {
			for seed := uint64(1); seed <= 3; seed++ {
				opts := []Option{WithN(n), WithSeed(seed)}
				if topoSpec != "" {
					opts = append(opts, WithTopology(topoSpec))
				}
				fp, err := Fingerprint(spec, opts...)
				if err != nil {
					t.Fatal(err)
				}
				cfg := fmt.Sprintf("%s|n=%d|seed=%d", topoSpec, n, seed)
				if prev, dup := seen[fp]; dup {
					t.Fatalf("fingerprint collision: %q and %q both map to %s", prev, cfg, fp)
				}
				seen[fp] = cfg
			}
		}
	}
}

// TestCheckRange: every cell RunMany runs passes CheckRange at its own index
// — whether the grid sweeps a Topos axis, names one topology in the shared
// Options, or runs on the clique — and fails at any other index.
func TestCheckRange(t *testing.T) {
	spec, err := Lookup("kuttenmoses")
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string]Batch{
		"axis":   {Topos: []string{"ring", "torus"}},
		"option": {Options: []Option{WithTopology("rreg:d=4")}},
		"clique": {},
	} {
		b.Ns, b.Seeds = []int{16, 32}, []uint64{1, 2}
		batch, err := RunMany(spec, b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := CheckRange(spec, &b, b.Ns, b.Seeds, 0, batch.Runs); err != nil {
			t.Fatalf("%s: whole grid: %v", name, err)
		}
		for idx, res := range batch.Runs {
			for other := range batch.Runs {
				err := CheckRange(spec, &b, b.Ns, b.Seeds, other, []Result{res})
				if (err == nil) != (other == idx) {
					t.Fatalf("%s: CheckRange(cell %d, run of cell %d) = %v", name, other, idx, err)
				}
			}
		}
	}
}

// TestBatchToposGrid pins the canonical topo-major, size-major, seed-minor
// grid: RunMany's Runs order, the per-(topo, n) aggregates, and RunRange
// slices of the same grid.
func TestBatchToposGrid(t *testing.T) {
	spec, err := Lookup("kuttenmoses")
	if err != nil {
		t.Fatal(err)
	}
	b := Batch{
		Ns:      []int{16, 32},
		Seeds:   []uint64{1, 2, 3},
		Topos:   []string{"ring", "torus"},
		Workers: 1,
	}
	batch, err := RunMany(spec, b)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(batch.Runs), GridSize(b.Ns, b.Seeds, b.Topos); got != want {
		t.Fatalf("grid has %d runs, want %d", got, want)
	}
	wantTopos := []string{"ring", "ring", "torus", "torus"}
	wantNs := []int{16, 32, 16, 32}
	if len(batch.Aggregates) != 4 {
		t.Fatalf("got %d aggregates, want 4", len(batch.Aggregates))
	}
	for g, agg := range batch.Aggregates {
		if agg.Topo != wantTopos[g] || agg.N != wantNs[g] || agg.Runs != 3 {
			t.Fatalf("aggregate %d = (%s, %d, %d runs), want (%s, %d, 3 runs)",
				g, agg.Topo, agg.N, agg.Runs, wantTopos[g], wantNs[g])
		}
	}
	for i, res := range batch.Runs {
		g := i / len(b.Seeds)
		if res.Topo != wantTopos[g] || res.N != wantNs[g] || res.Seed != b.Seeds[i%len(b.Seeds)] {
			t.Fatalf("run %d = (topo %s, n %d, seed %d), want (%s, %d, %d)",
				i, res.Topo, res.N, res.Seed, wantTopos[g], wantNs[g], b.Seeds[i%len(b.Seeds)])
		}
	}
	// RunRange over an arbitrary slice of the grid reproduces RunMany's cells.
	part, _, err := RunRange(spec, b, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range part {
		if !reflect.DeepEqual(res, batch.Runs[4+i]) {
			t.Fatalf("RunRange cell %d differs from RunMany", 4+i)
		}
	}
	if _, _, err := RunRange(spec, b, 11, 2); err == nil {
		t.Fatal("out-of-grid range accepted")
	}
}
