package distrib

import (
	"math/bits"

	"cliquelect/elect"
)

// Chunk is one contiguous cell range [Start, Start+Count) of a batch grid,
// in elect's canonical size-major, seed-minor cell order.
type Chunk struct {
	Start, Count int
}

// End returns the first cell index past the chunk.
func (c Chunk) End() int { return c.Start + c.Count }

// Partitioning is a pure function of the grid — never of the fleet. The
// same batch always shards into the same chunks whether 1 or 100 workers
// are alive, so failover and straggler re-dispatch move whole chunks
// between workers without ever changing what any request asks for, and a
// re-dispatched chunk is content-identical to the original (same cells,
// same fingerprints, free on a warm cache).
const (
	// targetChunks sets the floor on chunk size: a chunk holds at least
	// ceil(total/targetChunks) cells, so no grid shards into more than
	// targetChunks chunks until the floor reaches maxChunkCells. Losing a
	// worker then forfeits a small slice of the sweep, and stragglers can
	// be re-dispatched piecemeal.
	targetChunks = 64
	// maxChunkCells caps chunk size so very large grids still shard finely
	// enough for load balancing.
	maxChunkCells = 1024
	// chunkWeight is the summed cellWeight at which a chunk closes. Each
	// chunk costs a fixed round trip (HTTP exchange, queue hop, envelope),
	// so cheap cells travel in batches: eleven cells at n = 64 or five at
	// n = 128, while a cell from n = 456 up reaches the budget on its own
	// and travels alone.
	chunkWeight = 1 << 12
)

// cellWeight is the partitioner's stand-in for the work of one cell at
// size n: n·⌈log₂ n⌉, the Ω(n log n) message floor for deterministic
// election in the clique (arXiv 2301.08235). It is spec-independent on
// purpose — the same for every protocol, topology and seed — and at least
// 1, so a degenerate size still counts.
func cellWeight(n int) int {
	if n < 2 {
		return 1
	}
	return n * bits.Len(uint(n-1))
}

// minChunkCells is the floor on chunk size for a grid of total cells:
// ceil(total/targetChunks), clamped to [1, maxChunkCells].
func minChunkCells(total int) int {
	return min(max((total+targetChunks-1)/targetChunks, 1), maxChunkCells)
}

// Partition splits the canonical grid over (ns, seeds, topos) — the axes
// elect.RunMany hands a RemoteRunner, counted as elect.GridSize counts
// them — into contiguous chunks that cover [0, total) exactly once, in
// order, shaped by cost: consecutive cells join a chunk until their summed
// cellWeight reaches chunkWeight, a cell that reaches it alone starts a
// chunk of its own, and every chunk holds at least minChunkCells(total)
// cells (bar the last) and at most maxChunkCells. An empty ns weighs each cell as 1.
func Partition(ns []int, seeds []uint64, topos []string) []Chunk {
	perSize := max(len(seeds), 1)
	return partition(elect.GridSize(ns, seeds, topos), func(idx int) int {
		if len(ns) == 0 {
			return 1
		}
		return cellWeight(ns[idx/perSize%len(ns)])
	})
}

// partition is Partition over total cells, cell idx weighing weight(idx).
func partition(total int, weight func(idx int) int) []Chunk {
	var chunks []Chunk
	floor := minChunkCells(total)
	start, sum := 0, 0
	for idx := range total {
		w := weight(idx)
		if count := idx - start; count >= floor &&
			(count == maxChunkCells || sum >= chunkWeight || w >= chunkWeight) {
			chunks = append(chunks, Chunk{Start: start, Count: count})
			start, sum = idx, 0
		}
		sum += w
	}
	if start < total {
		chunks = append(chunks, Chunk{Start: start, Count: total - start})
	}
	return chunks
}
