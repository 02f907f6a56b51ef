package core_test

import (
	"fmt"

	"cliquelect/internal/core"
	"cliquelect/internal/ids"
	"cliquelect/internal/simasync"
	"cliquelect/internal/simsync"
	"cliquelect/internal/xrand"
)

// ExampleNewTradeoff elects a leader with the paper's improved deterministic
// tradeoff (Theorem 3.10) on a 64-node synchronous clique.
func ExampleNewTradeoff() {
	const n, k = 64, 4
	assign := ids.Sequential(ids.LinearUniverse(n, 1), n) // IDs 1..64
	res, err := simsync.Run(simsync.Config{N: n, IDs: assign, Seed: 1}, core.NewTradeoff(k))
	if err != nil {
		panic(err)
	}
	fmt.Printf("leader ID: %d, rounds: %d\n", assign[res.UniqueLeader()], res.Rounds)
	// Output:
	// leader ID: 64, rounds: 5
}

// ExampleNewSmallID shows Algorithm 1 (Theorem 3.15) finishing in one round
// when the minimal ID falls in the first scan window.
func ExampleNewSmallID() {
	const n, d, g = 32, 4, 1
	assign := ids.Sequential(ids.LinearUniverse(n, g), n)
	res, err := simsync.Run(simsync.Config{N: n, IDs: assign, Seed: 1}, core.NewSmallID(d, g))
	if err != nil {
		panic(err)
	}
	fmt.Printf("leader ID: %d (the minimum), rounds: %d, messages <= n*d*g: %v\n",
		assign[res.UniqueLeader()], res.Rounds, res.Messages <= n*d*g)
	// Output:
	// leader ID: 1 (the minimum), rounds: 1, messages <= n*d*g: true
}

// ExampleNewAsyncAfekGafni runs the deterministic asynchronous levels
// algorithm (Theorem 5.14) under skewed adversarial delays.
func ExampleNewAsyncAfekGafni() {
	const n = 32
	assign := ids.Random(ids.LogUniverse(n), n, xrand.New(5))
	res, err := simasync.Run(simasync.Config{
		N: n, IDs: assign, Seed: 2,
		Delays: simasync.SkewDelay{Fast: 0.1, Mod: 2},
	}, core.NewAsyncAfekGafni())
	if err != nil {
		panic(err)
	}
	fmt.Printf("unique leader elected: %v\n", res.UniqueLeader() >= 0)
	// Output:
	// unique leader elected: true
}
