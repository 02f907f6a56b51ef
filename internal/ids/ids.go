// Package ids constructs ID universes and ID assignments for clique networks.
//
// The paper ("Improved Tradeoffs for Leader Election", PODC 2023) is careful
// about the size of the ID universe U: Theorem 3.8 needs |U| >= 2n·log2(n)+n,
// Theorem 3.11 needs a much larger (super-polynomial) universe, and Theorem
// 3.15's algorithm only works when IDs come from the linear-size set
// {1..n·g(n)}. This package provides each of those regimes plus adversarial
// assignment patterns used by the lower-bound harnesses.
package ids

import (
	"fmt"
	"math"
	"sort"

	"cliquelect/internal/xrand"
)

// ID is a node identifier. The paper's ID universes are sets of integers;
// int64 comfortably holds every universe this repository instantiates.
type ID = int64

// Universe describes a set of candidate IDs {Lo..Hi} (inclusive) from which
// assignments are drawn.
type Universe struct {
	Lo, Hi ID
}

// Size returns |U|.
func (u Universe) Size() int64 { return int64(u.Hi - u.Lo + 1) }

// Contains reports whether x lies in the universe.
func (u Universe) Contains(x ID) bool { return x >= u.Lo && x <= u.Hi }

func (u Universe) String() string { return fmt.Sprintf("[%d..%d]", u.Lo, u.Hi) }

// LogUniverse returns the Θ(n log n)-sized universe {1..2n·ceil(log2 n)+n}
// required by Theorem 3.8. For n < 2 it degenerates to {1..n}.
func LogUniverse(n int) Universe {
	if n < 2 {
		return Universe{Lo: 1, Hi: ID(max(n, 1))}
	}
	l := int64(math.Ceil(math.Log2(float64(n))))
	return Universe{Lo: 1, Hi: 2*int64(n)*l + int64(n)}
}

// LinearUniverse returns the {1..n·g} universe of Theorem 3.15, where g is
// the g(n) >= 1 slack factor.
func LinearUniverse(n, g int) Universe {
	if g < 1 {
		g = 1
	}
	return Universe{Lo: 1, Hi: ID(n) * ID(g)}
}

// Assignment is an ordered list of distinct IDs; position i is the ID of
// node i. (The mapping of positions to ports is the port mapping's business,
// not the assignment's.)
type Assignment []ID

// Validate returns an error unless the assignment consists of n distinct IDs
// all contained in u.
func (a Assignment) Validate(u Universe) error {
	seen := make(map[ID]struct{}, len(a))
	for i, x := range a {
		if !u.Contains(x) {
			return fmt.Errorf("ids: node %d has ID %d outside universe %v", i, x, u)
		}
		if _, dup := seen[x]; dup {
			return fmt.Errorf("ids: duplicate ID %d", x)
		}
		seen[x] = struct{}{}
	}
	return nil
}

// Max returns the largest ID in the assignment. It panics on an empty
// assignment.
func (a Assignment) Max() ID {
	m := a[0]
	for _, x := range a[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the smallest ID in the assignment. It panics on an empty
// assignment.
func (a Assignment) Min() ID {
	m := a[0]
	for _, x := range a[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Random draws n distinct IDs uniformly from u without replacement.
func Random(u Universe, n int, rng *xrand.RNG) Assignment {
	if int64(n) > u.Size() {
		panic(fmt.Sprintf("ids: cannot draw %d distinct IDs from universe of size %d", n, u.Size()))
	}
	idx := rng.Sample(nil, int(u.Size()), n)
	out := make(Assignment, n)
	for i, j := range idx {
		out[i] = u.Lo + ID(j)
	}
	return out
}

// Sequential assigns IDs u.Lo, u.Lo+1, ..., u.Lo+n-1 in node order. This is
// the easiest assignment for ID-guessing algorithms and the baseline for the
// small-ID-universe experiments.
func Sequential(u Universe, n int) Assignment {
	if int64(n) > u.Size() {
		panic(fmt.Sprintf("ids: universe %v too small for %d nodes", u, n))
	}
	out := make(Assignment, n)
	for i := range out {
		out[i] = u.Lo + ID(i)
	}
	return out
}

// Spread assigns maximally spread-out IDs across the universe: node i gets
// u.Lo + i*floor(|U|/n). With a linear universe this is the adversarial
// input for Algorithm 1 (Theorem 3.15): every probe window of d·g(n)
// consecutive IDs contains ~d·g(n)/g(n) = d senders, maximizing messages.
func Spread(u Universe, n int) Assignment {
	if int64(n) > u.Size() {
		panic(fmt.Sprintf("ids: universe %v too small for %d nodes", u, n))
	}
	step := u.Size() / int64(n)
	if step == 0 {
		step = 1
	}
	out := make(Assignment, n)
	for i := range out {
		out[i] = u.Lo + ID(int64(i)*step)
	}
	return out
}

// TopHeavy assigns the n largest IDs of the universe in descending node
// order, an adversarial pattern for max-ID election protocols (every node
// looks like a plausible winner to its referees).
func TopHeavy(u Universe, n int) Assignment {
	if int64(n) > u.Size() {
		panic(fmt.Sprintf("ids: universe %v too small for %d nodes", u, n))
	}
	out := make(Assignment, n)
	for i := range out {
		out[i] = u.Hi - ID(i)
	}
	return out
}

// Blocks partitions the universe into contiguous blocks of the given size
// and concatenates blockCount of them chosen uniformly at random (without
// replacement) into one assignment. The lower-bound harnesses (Lemma 3.6 and
// the LasVegasChecker) use block-structured assignments to compose isolated
// executions.
func Blocks(u Universe, blockSize, blockCount int, rng *xrand.RNG) Assignment {
	total := u.Size() / int64(blockSize)
	if int64(blockCount) > total {
		panic(fmt.Sprintf("ids: universe %v has only %d blocks of size %d", u, total, blockSize))
	}
	chosen := rng.Sample(nil, int(total), blockCount)
	sort.Ints(chosen)
	out := make(Assignment, 0, blockSize*blockCount)
	for _, b := range chosen {
		base := u.Lo + ID(b)*ID(blockSize)
		for j := 0; j < blockSize; j++ {
			out = append(out, base+ID(j))
		}
	}
	return out
}
