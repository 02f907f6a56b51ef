package distrib

import (
	"time"

	"cliquelect/internal/obs"
)

// MaxChunkCells exposes the partitioner's chunk-size clamp to the external
// test package (the tests moved out of package distrib when the service
// layer started importing distrib for in-daemon fleet dispatch).
const MaxChunkCells = maxChunkCells

// ChunkWeight, CellWeight and MinChunkCells expose the partitioner's cost
// model: the per-chunk weight budget, a cell's weight at size n, and the
// floor on chunk size for a grid of total cells.
const ChunkWeight = chunkWeight

func CellWeight(n int) int { return cellWeight(n) }

func MinChunkCells(total int) int { return minChunkCells(total) }

// PartitionUniform runs the partitioner over total cells of one weight
// each: the degenerate-grid tests reach the core with totals (zero,
// negative) that no grid axes spell.
func PartitionUniform(total, weight int) []Chunk {
	return partition(total, func(int) int { return weight })
}

// SetStraggle shortens the straggler re-dispatch delay before the fleet
// runs its first grid.
func (f *Fleet) SetStraggle(d time.Duration) { f.straggle = d }

// ConfiguredSpans exposes the fleet's span collector for the untraced-path
// assertion.
func (f *Fleet) ConfiguredSpans() *obs.SpanCollector { return f.cfg.Spans }
