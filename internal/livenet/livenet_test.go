package livenet

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"cliquelect/internal/core"
	"cliquelect/internal/ids"
	"cliquelect/internal/proto"
	"cliquelect/internal/simasync"
	"cliquelect/internal/xrand"
)

func TestLiveAsyncTradeoff(t *testing.T) {
	// Algorithm 2 must elect a unique leader under genuine goroutine
	// interleavings, not only under the deterministic simulator.
	const n = 96
	fails := 0
	const trials = 15
	for seed := uint64(0); seed < trials; seed++ {
		assign := ids.Random(ids.LogUniverse(n), n, xrand.New(seed+1))
		res, err := Run(Config{
			N: n, IDs: assign, Wake: []int{0, 7}, Seed: seed,
		}, core.NewAsyncTradeoff(2))
		if err != nil {
			t.Fatal(err)
		}
		if res.Validate() != nil {
			fails++
		}
	}
	if fails > 2 {
		t.Fatalf("%d/%d live runs failed", fails, trials)
	}
}

func TestLiveAsyncAfekGafni(t *testing.T) {
	// The deterministic levels algorithm must elect exactly one leader on
	// every live run — no failure budget at all.
	for _, n := range []int{2, 3, 16, 64} {
		for seed := uint64(0); seed < 5; seed++ {
			assign := ids.Random(ids.LogUniverse(max(2, n)), n, xrand.New(seed+uint64(n)))
			all := make([]int, n)
			for i := range all {
				all[i] = i
			}
			res, err := Run(Config{N: n, IDs: assign, Wake: all, Seed: seed},
				core.NewAsyncAfekGafni())
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Validate(); err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
		}
	}
}

func TestLiveWakesEveryone(t *testing.T) {
	const n = 64
	assign := ids.Random(ids.LogUniverse(n), n, xrand.New(5))
	res, err := Run(Config{N: n, IDs: assign, Wake: []int{3}, Seed: 6},
		core.NewAsyncTradeoff(2))
	if err != nil {
		t.Fatal(err)
	}
	for u, a := range res.Awake {
		if !a {
			t.Fatalf("node %d never woke", u)
		}
	}
}

// chatter floods forever to exercise the truncation guard.
type chatter struct{ env proto.Env }

func (c *chatter) Wake(env proto.Env) []proto.Send {
	c.env = env
	return []proto.Send{{Port: 0, Msg: proto.Message{Kind: 1}}}
}

func (c *chatter) Receive(d proto.Delivery) []proto.Send {
	return []proto.Send{{Port: d.Port, Msg: proto.Message{Kind: 1}}}
}

func (c *chatter) Decision() proto.Decision { return proto.Undecided }

func TestLiveTruncation(t *testing.T) {
	res, err := Run(Config{
		N: 2, IDs: ids.Assignment{1, 2}, Wake: []int{0}, MaxMessages: 50,
	}, func(int) simasync.Protocol { return &chatter{} })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("expected truncation")
	}
	if res.Validate() == nil {
		t.Fatal("Validate must fail when truncated")
	}
}

func TestLiveConfigErrors(t *testing.T) {
	mk := core.NewAsyncTradeoff(2)
	if _, err := Run(Config{N: 0, Wake: []int{0}}, mk); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := Run(Config{N: 2, IDs: ids.Assignment{1, 2}, Wake: []int{}}, mk); err == nil {
		t.Fatal("empty wake accepted")
	}
	if _, err := Run(Config{N: 2, IDs: ids.Assignment{1}, Wake: []int{0}}, mk); err == nil {
		t.Fatal("bad IDs accepted")
	}
	if _, err := Run(Config{N: 2, IDs: ids.Assignment{1, 2}, Wake: []int{5}}, mk); err == nil {
		t.Fatal("bad wake node accepted")
	}
}

// TestLiveInvalidWakeNoLeak: a wake set naming a node outside [0, n) is
// rejected before any node goroutine starts, even after valid wakes.
func TestLiveInvalidWakeNoLeak(t *testing.T) {
	const n = 16
	base := runtime.NumGoroutine()
	_, err := Run(Config{N: n, IDs: ids.Random(ids.LogUniverse(n), n, xrand.New(1)), Wake: []int{0, n}},
		core.NewAsyncTradeoff(2))
	if err == nil || !strings.Contains(err.Error(), "wake of invalid node 16") {
		t.Fatalf("err = %v, want the invalid wake named", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the rejected run, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLiveStressLargerClique runs the async tradeoff at a larger scale on
// the concurrent runtime, checking wake-up coverage and uniqueness.
func TestLiveStressLargerClique(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const n = 256
	ok := 0
	for seed := uint64(0); seed < 6; seed++ {
		assign := ids.Random(ids.LogUniverse(n), n, xrand.New(seed+3000))
		res, err := Run(Config{N: n, IDs: assign, Wake: []int{int(seed) % n}, Seed: seed},
			core.NewAsyncTradeoff(3))
		if err != nil {
			t.Fatal(err)
		}
		if res.Validate() == nil {
			ok++
		}
	}
	if ok < 5 {
		t.Fatalf("only %d/6 live stress runs succeeded", ok)
	}
}
