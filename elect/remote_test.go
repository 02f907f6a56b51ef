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
	runs, _, err := RunRange(spec, local, 0, len(ns)*len(seeds))
	return runs, err
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
		part, _, err := RunRange(spec, b, start, count)
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

// TestValidRange: the one cell-range rule, checked directly and through
// RunRange, which must reject exactly the ranges ValidRange rejects.
func TestValidRange(t *testing.T) {
	spec := mustSpec(t, "kuttenmoses")
	grid := Batch{Ns: []int{32}, Seeds: Seeds(1, 4)}
	ring := Batch{Ns: []int{16}, Seeds: Seeds(1, 1), Topos: []string{"ring"}}
	for _, tc := range []struct {
		name         string
		b            Batch
		start, count int
		ok           bool
	}{
		{"whole grid", grid, 0, 4, true},
		{"last cell", grid, 3, 1, true},
		{"negative start", grid, -1, 2, false},
		{"zero count", grid, 0, 0, false},
		{"negative count", grid, 1, -1, false},
		{"past the end", grid, 0, 5, false},
		{"start at the end", grid, 4, 1, false},
		{"end past the end", grid, 3, 2, false},
		// Unchecked, the end overflows int and the cell index runs past
		// the topology axis.
		{"start math.MaxInt", ring, math.MaxInt, 1, false},
		{"topology axis", ring, 0, 1, true},
		// Empty Ns and Seeds default like RunMany: a 1-cell grid.
		{"empty axes", Batch{}, 0, 1, true},
		{"empty axes past the end", Batch{}, 0, 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidRange(&tc.b, tc.start, tc.count)
			if (err == nil) != tc.ok {
				t.Fatalf("ValidRange(%d, %d) = %v, want ok=%v", tc.start, tc.count, err, tc.ok)
			}
			out, wires, rerr := RunRange(spec, tc.b, tc.start, tc.count)
			if !tc.ok {
				if rerr == nil || rerr.Error() != err.Error() {
					t.Fatalf("RunRange error %v, want %v", rerr, err)
				}
				return
			}
			if rerr != nil || len(out) != tc.count || len(wires) != tc.count {
				t.Fatalf("RunRange: %d results, %d wires, err=%v", len(out), len(wires), rerr)
			}
		})
	}
	out, _, err := RunRange(spec, Batch{}, 0, 1)
	if err != nil || out[0].N != 64 || out[0].Seed != 1 {
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
