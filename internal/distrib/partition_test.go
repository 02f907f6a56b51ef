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
// grids and hostile weights must neither panic nor produce a chunk outside
// [0, total). A cell that weighs the whole chunk budget travels alone, and
// cells of a quarter budget travel four to a chunk.
func TestPartitionEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name          string
		total, weight int
		chunks        int
	}{
		{"empty grid", 0, ChunkWeight, 0},
		{"negative total", -3, ChunkWeight, 0},
		{"single cell", 1, ChunkWeight, 1},
		{"single cell huge size", 1, 1 << 20, 1},
		{"size one", 5, ChunkWeight, 5},
		{"remainder chunk", 10, ChunkWeight / 4, 3},
		{"exact multiple", 12, ChunkWeight / 4, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := PartitionUniform(tc.total, tc.weight)
			if len(got) != tc.chunks {
				t.Fatalf("partition(%d) at weight %d = %d chunks, want %d", tc.total, tc.weight, len(got), tc.chunks)
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
// repetition.
func TestPartitionTopoGrids(t *testing.T) {
	ns := []int{64, 128}
	seeds := []uint64{1, 2, 3}
	for _, topos := range [][]string{nil, {"ring"}, {"ring", "torus", "rreg:d=4"}} {
		total := elect.GridSize(ns, seeds, topos)
		want := max(len(topos), 1) * len(ns) * len(seeds)
		if total != want {
			t.Fatalf("GridSize(%v) = %d, want %d", topos, total, want)
		}
		checkCover(t, Partition(ns, seeds, topos), total)
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

// TestPartitionProperties checks the weight-shaped partition on
// every property grid: exact in-order cover, the maxChunkCells cap and
// the chunk-count bound, the minChunkCells floor, that a chunk closes as
// soon as its weight reaches the budget (and not before, unless the next
// cell is heavy or the cap is reached), that a cell whose weight alone
// reaches the budget runs alone unless the floor applies, and determinism.
func TestPartitionProperties(t *testing.T) {
	for _, g := range propertyGrids() {
		seeds := elect.Seeds(1, g.seeds)
		total := elect.GridSize(g.ns, seeds, g.topos)
		inner := len(g.ns) * len(seeds)
		weight := func(idx int) int { return CellWeight(g.ns[idx%inner/len(seeds)]) }
		floor := MinChunkCells(total)

		chunks := Partition(g.ns, seeds, g.topos)
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
		if again := Partition(g.ns, seeds, g.topos); !slices.Equal(chunks, again) {
			t.Fatalf("%v: partition not deterministic", g)
		}
	}
}

// TestPartitionFleetSweepShape pins the weight budget against the grid
// `sweep -algo tradeoff -k 3 -ns 64,128 -seeds 32 -workers …` sends: its 64
// cheap cells travel in a handful of chunks, not one per cell.
func TestPartitionFleetSweepShape(t *testing.T) {
	chunks := Partition([]int{64, 128}, elect.Seeds(1, 32), nil)
	if len(chunks) < 6 || len(chunks) > 16 {
		t.Fatalf("64-cell grid shards into %d chunks, want 6..16: %v", len(chunks), chunks)
	}
}
