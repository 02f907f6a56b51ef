package distrib_test

import (
	"fmt"
	"slices"
	"testing"

	"cliquelect/elect"
	"cliquelect/internal/xrand"

	. "cliquelect/internal/distrib"
)

// TestPartitionEdgeCases is the degenerate-grid table: empty and single-cell
// grids and hostile sizes must neither panic nor produce a chunk outside
// [0, total). Every cell weighs the whole chunk budget, so the default
// partition is one cell per chunk.
func TestPartitionEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name        string
		total, size int
		chunks      int
	}{
		{"empty grid", 0, 5, 0},
		{"empty grid default size", 0, 0, 0},
		{"negative total", -3, 4, 0},
		{"single cell", 1, 0, 1},
		{"single cell huge size", 1, 1 << 20, 1},
		{"negative size means default", 10, -1, 10},
		{"size one", 5, 1, 5},
		{"remainder chunk", 10, 4, 3},
		{"exact multiple", 12, 4, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := PartitionUniform(tc.total, tc.size, ChunkWeight)
			if len(got) != tc.chunks {
				t.Fatalf("partition(%d, %d) = %d chunks, want %d", tc.total, tc.size, len(got), tc.chunks)
			}
			checkCover(t, got, max(tc.total, 0))
		})
	}
}

// checkCover asserts that chunks cover [0, total) exactly once, in order.
func checkCover(t *testing.T, chunks []Chunk, total int) {
	t.Helper()
	next := 0
	for _, c := range chunks {
		if c.Start != next || c.Count < 1 {
			t.Fatalf("bad chunk %+v at offset %d", c, next)
		}
		next = c.End()
	}
	if next != total {
		t.Fatalf("chunks cover %d of %d cells", next, total)
	}
}

// TestPartitionTopoGrids pins the partitioner against real topology-swept
// grids: a topology axis repeats the size axis, so the chunks cover every
// repetition, at a fixed size and at the default one.
func TestPartitionTopoGrids(t *testing.T) {
	ns := []int{64, 128}
	seeds := []uint64{1, 2, 3}
	for _, topos := range [][]string{nil, {"ring"}, {"ring", "torus", "rreg:d=4"}} {
		total := elect.GridSize(ns, seeds, topos)
		want := max(len(topos), 1) * len(ns) * len(seeds)
		if total != want {
			t.Fatalf("GridSize(%v) = %d, want %d", topos, total, want)
		}
		for _, size := range []int{4, 0} {
			checkCover(t, Partition(ns, seeds, topos, size), total)
		}
	}
}

// partitionGrid is one grid of the property table.
type partitionGrid struct {
	ns    []int
	seeds int
	topos []string
}

func (g partitionGrid) String() string {
	return fmt.Sprintf("ns=%v seeds=%d topos=%v", g.ns, g.seeds, g.topos)
}

// propertyGrids mixes sizes from 2 to 2^20, with and without a topology
// axis, at totals below and above the targetChunks and maxChunkCells
// floors, plus seeded random grids.
func propertyGrids() []partitionGrid {
	var ladder []int
	for n := 2; n <= 1<<20; n *= 2 {
		ladder = append(ladder, n)
	}
	grids := []partitionGrid{
		{ladder, 3, nil},
		{ladder, 5, []string{"ring", "torus"}},
		{[]int{64, 128}, 32, nil},
		{[]int{1 << 20, 16, 1 << 20, 16}, 1, []string{"ring"}},
		{[]int{16, 700, 16}, 9, nil},
		{[]int{16}, 5000, []string{"a", "b", "c"}},
		{[]int{2, 1 << 20}, 40000, nil},
		{[]int{2}, 1 << 17, []string{"a", "b"}},
	}
	rng := xrand.New(2301)
	for range 40 {
		g := partitionGrid{seeds: 1 + rng.Intn(60)}
		for range 1 + rng.Intn(6) {
			g.ns = append(g.ns, 2+rng.Intn(1<<(1+rng.Intn(20))))
		}
		for range rng.Intn(4) {
			g.topos = append(g.topos, "ring")
		}
		grids = append(grids, g)
	}
	return grids
}

// TestPartitionProperties checks the default, weight-shaped partition on
// every property grid: exact in-order cover, the maxChunkCells cap and
// the chunk-count bound, the minChunkCells floor, that a chunk closes as
// soon as its weight reaches the budget (and not before, unless the next
// cell is heavy or the cap is reached), that a cell whose weight alone
// reaches the budget runs alone unless the floor applies, determinism, and
// that a fixed size overrides it all.
func TestPartitionProperties(t *testing.T) {
	for _, g := range propertyGrids() {
		seeds := elect.Seeds(1, g.seeds)
		total := elect.GridSize(g.ns, seeds, g.topos)
		inner := len(g.ns) * len(seeds)
		weight := func(idx int) int { return CellWeight(g.ns[idx%inner/len(seeds)]) }
		floor := MinChunkCells(total)

		chunks := Partition(g.ns, seeds, g.topos, 0)
		checkCover(t, chunks, total)
		if bound := max(64, (total+MaxChunkCells-1)/MaxChunkCells); len(chunks) > bound {
			t.Fatalf("%v: %d chunks, bound %d", g, len(chunks), bound)
		}
		for i, c := range chunks {
			last := i == len(chunks)-1
			if c.Count > MaxChunkCells || !last && c.Count < floor {
				t.Fatalf("%v: chunk %+v outside [%d, %d] cells", g, c, floor, MaxChunkCells)
			}
			sum, heavy := 0, false
			for idx := c.Start; idx < c.End(); idx++ {
				if idx == c.End()-1 && c.Count > floor && sum >= ChunkWeight {
					t.Fatalf("%v: chunk %+v kept a cell after reaching the budget", g, c)
				}
				sum += weight(idx)
				heavy = heavy || weight(idx) >= ChunkWeight
			}
			if heavy && c.Count > max(floor, 1) {
				t.Fatalf("%v: chunk %+v holds a heavy cell among %d cells (floor %d)", g, c, c.Count, floor)
			}
			if !last && sum < ChunkWeight && c.Count < MaxChunkCells && weight(c.End()) < ChunkWeight {
				t.Fatalf("%v: chunk %+v closed at weight %d, under the budget", g, c, sum)
			}
		}
		if again := Partition(g.ns, seeds, g.topos, 0); !slices.Equal(chunks, again) {
			t.Fatalf("%v: partition not deterministic", g)
		}
		for _, size := range []int{1, 7, MaxChunkCells} {
			fixed := Partition(g.ns, seeds, g.topos, size)
			checkCover(t, fixed, total)
			for i, c := range fixed {
				if c.Count != size && i != len(fixed)-1 {
					t.Fatalf("%v: size %d gave chunk %+v", g, size, c)
				}
			}
		}
	}
}

// TestPartitionFleetSweepShape pins the weight budget against the grid
// `sweep -algo tradeoff -k 3 -ns 64,128 -seeds 32 -workers …` sends: its 64
// cheap cells travel in a handful of chunks, not one per cell.
func TestPartitionFleetSweepShape(t *testing.T) {
	chunks := Partition([]int{64, 128}, elect.Seeds(1, 32), nil, 0)
	if len(chunks) < 6 || len(chunks) > 16 {
		t.Fatalf("64-cell grid shards into %d chunks, want 6..16: %v", len(chunks), chunks)
	}
}
