package elect_test

import (
	"bytes"
	"fmt"

	"cliquelect/elect"
	"cliquelect/internal/resultcache"
)

// ExampleRun elects a leader among 256 nodes with the paper's headline
// tradeoff algorithm (Theorem 3.10). Everything about a deterministic run —
// ID assignment, port wiring, protocol coins — derives from the seed, so
// the outcome below is reproducible on any machine.
func ExampleRun() {
	spec, err := elect.Lookup("tradeoff")
	if err != nil {
		panic(err)
	}
	res, err := elect.Run(spec,
		elect.WithN(256),
		elect.WithSeed(7),
		elect.WithParams(elect.Params{K: 4}),
	)
	if err != nil {
		panic(err)
	}
	fmt.Printf("ok=%v leader=node %d rounds=%d messages=%d\n",
		res.OK, res.Leader, res.Rounds, res.Messages)
	// Output:
	// ok=true leader=node 98 rounds=5 messages=2704
}

// ExampleRunMany sweeps one spec across sizes and seeds. The grid fans out
// over the sharded parallel executor, and the per-seed results are
// byte-identical whatever the worker count — Workers only changes how fast
// the same BatchResult appears.
func ExampleRunMany() {
	spec, err := elect.Lookup("tradeoff")
	if err != nil {
		panic(err)
	}
	batch, err := elect.RunMany(spec, elect.Batch{
		Ns:    []int{64, 128},
		Seeds: elect.Seeds(1, 10), // seeds 1..10 at every size
	})
	if err != nil {
		panic(err)
	}
	for _, agg := range batch.Aggregates {
		fmt.Printf("n=%-4d runs=%d success=%.2f mean msgs=%.1f\n",
			agg.N, agg.Runs, agg.SuccessRate, agg.Messages.Mean)
	}
	// Output:
	// n=64   runs=10 success=1.00 mean msgs=676.8
	// n=128  runs=10 success=1.00 mean msgs=1803.7
}

// ExampleRunCached shows the serving layer's memoization: deterministic
// runs are content-addressed by elect.Fingerprint, so repeating one through
// a cache replays the stored bytes instead of re-executing the election.
func ExampleRunCached() {
	spec, err := elect.Lookup("tradeoff")
	if err != nil {
		panic(err)
	}
	cache := resultcache.New() // in-memory; WithDir adds a disk tier
	opts := []elect.Option{elect.WithN(128), elect.WithSeed(3)}

	first, hit1, err := elect.RunCached(cache, spec, opts...)
	if err != nil {
		panic(err)
	}
	again, hit2, err := elect.RunCached(cache, spec, opts...)
	if err != nil {
		panic(err)
	}
	res, err := elect.DecodeResult(again)
	if err != nil {
		panic(err)
	}
	fmt.Printf("first: hit=%v\n", hit1)
	fmt.Printf("again: hit=%v leader=%d same=%v\n", hit2, res.Leader, bytes.Equal(first, again))
	// Output:
	// first: hit=false
	// again: hit=true leader=108 same=true
}

// ExampleWithFaults injects a deterministic fault plan: each node
// crash-stops with probability 0.05 and every message is dropped with
// probability 0.01, all driven by the run's seed. OK then means a unique
// *surviving* leader was elected — crashed nodes' outputs are void.
func ExampleWithFaults() {
	spec, err := elect.Lookup("tradeoff")
	if err != nil {
		panic(err)
	}
	res, err := elect.Run(spec,
		elect.WithN(128),
		elect.WithSeed(5),
		elect.WithFaults(elect.FaultPlan{CrashRate: 0.05, DropRate: 0.01}),
	)
	if err != nil {
		panic(err)
	}
	fmt.Printf("ok=%v crashed=%d dropped=%d\n", res.OK, len(res.Crashed), res.Dropped)
	// Output:
	// ok=true crashed=1 dropped=13
}
