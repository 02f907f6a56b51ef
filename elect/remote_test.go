package elect

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// gridRunner is a test RemoteRunner: it computes every cell locally through
// RunRange (recording that it was consulted), or fails with a canned error.
type gridRunner struct {
	err    error
	called bool
}

func (g *gridRunner) RunGrid(spec Spec, ns []int, seeds []uint64, b *Batch) ([]Result, error) {
	g.called = true
	if g.err != nil {
		return nil, g.err
	}
	local := *b
	local.Remote = nil
	local.Ns, local.Seeds = ns, seeds
	return RunRange(spec, local, 0, len(ns)*len(seeds))
}

// TestRunRangeMatchesRunMany: any contiguous range of the grid returns
// exactly the corresponding slice of RunMany's Runs, byte-for-byte on the
// wire codec.
func TestRunRangeMatchesRunMany(t *testing.T) {
	spec, err := Lookup("tradeoff")
	if err != nil {
		t.Fatal(err)
	}
	b := Batch{Ns: []int{32, 64, 128}, Seeds: Seeds(1, 4), Workers: 3}
	full, err := RunMany(spec, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, rng := range [][2]int{{0, 12}, {0, 1}, {11, 1}, {3, 5}, {4, 8}} {
		start, count := rng[0], rng[1]
		part, err := RunRange(spec, b, start, count)
		if err != nil {
			t.Fatalf("RunRange(%d, %d): %v", start, count, err)
		}
		if len(part) != count {
			t.Fatalf("RunRange(%d, %d) returned %d results", start, count, len(part))
		}
		for i, got := range part {
			wb, _ := EncodeResult(full.Runs[start+i])
			gb, _ := EncodeResult(got)
			if !bytes.Equal(wb, gb) {
				t.Fatalf("range [%d,%d) cell %d differs from RunMany", start, start+count, i)
			}
		}
	}
}

func TestRunRangeValidation(t *testing.T) {
	spec, err := Lookup("tradeoff")
	if err != nil {
		t.Fatal(err)
	}
	b := Batch{Ns: []int{32}, Seeds: Seeds(1, 4)}
	for _, rng := range [][2]int{{-1, 2}, {0, 0}, {0, 5}, {4, 1}, {3, 2}} {
		if _, err := RunRange(spec, b, rng[0], rng[1]); err == nil {
			t.Errorf("range [%d, %d) accepted", rng[0], rng[0]+rng[1])
		}
	}
	// A range whose end overflows int is outside the grid too; unchecked,
	// its cell index would run past the topology axis.
	ring := Batch{Ns: []int{16}, Seeds: Seeds(1, 1), Topos: []string{"ring"}}
	if _, err := RunRange(mustSpec(t, "kuttenmoses"), ring, math.MaxInt, 1); err == nil {
		t.Error("range starting at math.MaxInt accepted")
	}
	// Empty Ns/Seeds default like RunMany: a 1-cell grid.
	out, err := RunRange(spec, Batch{}, 0, 1)
	if err != nil || len(out) != 1 || out[0].N != 64 || out[0].Seed != 1 {
		t.Fatalf("defaulted range: %v err=%v", out, err)
	}
}

// TestRunManyRemotePath: a working RemoteRunner supplies the runs (and the
// BatchResult is byte-identical to local execution); a runner error aborts;
// a short result slice is rejected.
func TestRunManyRemotePath(t *testing.T) {
	spec, err := Lookup("tradeoff")
	if err != nil {
		t.Fatal(err)
	}
	base := Batch{Ns: []int{32, 64}, Seeds: Seeds(5, 3)}
	local, err := RunMany(spec, base)
	if err != nil {
		t.Fatal(err)
	}
	localBytes, _ := EncodeBatchResult(local)

	remote := base
	ok := &gridRunner{}
	remote.Remote = ok
	got, err := RunMany(spec, remote)
	if err != nil || !ok.called {
		t.Fatalf("remote path: err=%v called=%v", err, ok.called)
	}
	gotBytes, _ := EncodeBatchResult(got)
	if !bytes.Equal(localBytes, gotBytes) {
		t.Fatal("remote grid not byte-identical to local RunMany")
	}

	broken := base
	bang := errors.New("fleet exploded")
	broken.Remote = &gridRunner{err: bang}
	if _, err := RunMany(spec, broken); !errors.Is(err, bang) {
		t.Fatalf("remote error not surfaced: %v", err)
	}

	short := base
	short.Remote = shortRunner{}
	if _, err := RunMany(spec, short); err == nil {
		t.Fatal("short remote result slice accepted")
	}
}

type shortRunner struct{}

func (shortRunner) RunGrid(Spec, []int, []uint64, *Batch) ([]Result, error) {
	return make([]Result, 1), nil
}
