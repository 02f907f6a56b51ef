package ids

import (
	"testing"
	"testing/quick"

	"cliquelect/internal/xrand"
)

func TestLogUniverseSize(t *testing.T) {
	cases := []struct {
		n    int
		want int64
	}{
		{2, 2*2*1 + 2},
		{4, 2*4*2 + 4},
		{8, 2*8*3 + 8},
		{1024, 2*1024*10 + 1024},
	}
	for _, c := range cases {
		if got := LogUniverse(c.n).Size(); got != c.want {
			t.Errorf("LogUniverse(%d).Size() = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestLogUniverseTiny(t *testing.T) {
	for _, n := range []int{0, 1} {
		u := LogUniverse(n)
		if u.Size() < 1 {
			t.Errorf("LogUniverse(%d) empty: %v", n, u)
		}
	}
}

func TestLinearUniverse(t *testing.T) {
	u := LinearUniverse(100, 3)
	if u.Lo != 1 || u.Hi != 300 {
		t.Fatalf("LinearUniverse(100,3) = %v", u)
	}
	if got := LinearUniverse(10, 0); got.Hi != 10 {
		t.Fatalf("g<1 should clamp to 1, got %v", got)
	}
}

func TestRandomAssignmentValid(t *testing.T) {
	prop := func(seed uint64, sz uint8) bool {
		n := int(sz%64) + 2
		u := LogUniverse(n)
		a := Random(u, n, xrand.New(seed))
		return len(a) == n && a.Validate(u) == nil
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialAndSpread(t *testing.T) {
	u := LinearUniverse(8, 2) // [1..16]
	seq := Sequential(u, 8)
	if err := seq.Validate(u); err != nil {
		t.Fatal(err)
	}
	if seq[0] != 1 || seq[7] != 8 {
		t.Fatalf("Sequential = %v", seq)
	}
	sp := Spread(u, 8)
	if err := sp.Validate(u); err != nil {
		t.Fatal(err)
	}
	if sp[0] != 1 || sp[1] != 3 || sp[7] != 15 {
		t.Fatalf("Spread = %v", sp)
	}
}

func TestTopHeavy(t *testing.T) {
	u := Universe{Lo: 1, Hi: 100}
	a := TopHeavy(u, 5)
	want := Assignment{100, 99, 98, 97, 96}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("TopHeavy = %v, want %v", a, want)
		}
	}
	if err := a.Validate(u); err != nil {
		t.Fatal(err)
	}
}

func TestBlocksDisjointValid(t *testing.T) {
	u := Universe{Lo: 1, Hi: 1000}
	a := Blocks(u, 10, 6, xrand.New(5))
	if len(a) != 60 {
		t.Fatalf("len = %d", len(a))
	}
	if err := a.Validate(u); err != nil {
		t.Fatal(err)
	}
	// Each block must be 10 consecutive IDs.
	for b := 0; b < 6; b++ {
		base := a[b*10]
		for j := 0; j < 10; j++ {
			if a[b*10+j] != base+ID(j) {
				t.Fatalf("block %d not contiguous: %v", b, a[b*10:(b+1)*10])
			}
		}
	}
}

func TestValidateRejectsDuplicates(t *testing.T) {
	u := Universe{Lo: 1, Hi: 10}
	if err := (Assignment{1, 2, 2}).Validate(u); err == nil {
		t.Fatal("duplicate not rejected")
	}
	if err := (Assignment{1, 2, 11}).Validate(u); err == nil {
		t.Fatal("out-of-universe not rejected")
	}
}

func TestMinMax(t *testing.T) {
	a := Assignment{5, 1, 9, 3}
	if a.Min() != 1 || a.Max() != 9 {
		t.Fatalf("Min=%d Max=%d", a.Min(), a.Max())
	}
}

func TestRandomPanicsWhenTooSmall(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Random(Universe{Lo: 1, Hi: 3}, 4, xrand.New(0))
}
