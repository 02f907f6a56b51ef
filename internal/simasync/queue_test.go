package simasync

import (
	"sort"
	"testing"

	"cliquelect/internal/xrand"
)

// TestEventQueueOrder drives the lane-plus-heap queue with random pushes —
// monotone runs (which ride the lane), out-of-order times (which go to the
// heap) and repeated times (where only seq breaks the tie) — interleaved
// with pops, and checks every pop against a reference that keeps the
// pending events sorted by (time, seq). One queue serves every seed, reset in
// between as the scratch pool does, so ring wrap-around, growth and reuse
// are all exercised.
func TestEventQueueOrder(t *testing.T) {
	var q eventQueue
	for seed := uint64(1); seed <= 20; seed++ {
		q.reset()
		rng := xrand.New(seed)
		var pending []event
		var seq int64
		last := 0.0
		// pending is kept sorted by (time, seq); seq only grows, so a new
		// event goes after every pending event with its time.
		pushRef := func(e event) {
			i := sort.Search(len(pending), func(i int) bool { return pending[i].time > e.time })
			pending = append(pending, event{})
			copy(pending[i+1:], pending[i:])
			pending[i] = e
		}
		popRef := func() event {
			e := pending[0]
			pending = pending[1:]
			return e
		}
		for op := 0; op < 4000; op++ {
			if len(pending) > 0 && rng.Intn(5) < 2 {
				got, want := q.pop(), popRef()
				if got.time != want.time || got.seq != want.seq {
					t.Fatalf("seed %d op %d: pop (%v, %d), want (%v, %d)", seed, op, got.time, got.seq, want.time, want.seq)
				}
				continue
			}
			switch rng.Intn(4) {
			case 0: // monotone run
				last += float64(rng.Intn(3)) / 4
			case 1: // out of order, on a coarse grid to force ties
				last = float64(rng.Intn(40)) / 4
			case 2: // out of order, anywhere
				last = 10 * rng.Float64()
			case 3: // repeat the last time
			}
			e := event{time: last, seq: seq, node: int(seq)}
			seq++
			q.push(e)
			pushRef(e)
			if q.len() != len(pending) {
				t.Fatalf("seed %d op %d: len %d, want %d", seed, op, q.len(), len(pending))
			}
		}
		for len(pending) > 0 {
			got, want := q.pop(), popRef()
			if got.time != want.time || got.seq != want.seq || got.node != want.node {
				t.Fatalf("seed %d drain: pop (%v, %d), want (%v, %d)", seed, got.time, got.seq, want.time, want.seq)
			}
		}
		if q.len() != 0 {
			t.Fatalf("seed %d: %d events left after drain", seed, q.len())
		}
	}
}
