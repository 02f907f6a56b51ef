package topo

import "testing"

// FuzzCanonicalTopo feeds arbitrary spec strings — they arrive in HTTP
// bodies as topo and topos — through the parser. An accepted spec must
// canonicalize to a fixed point of Canonical with the same Family, and
// building the canonical form on 1..64 nodes must return an error or a
// graph of exactly that size, never panic. Seeds live in
// testdata/fuzz/FuzzCanonicalTopo.
func FuzzCanonicalTopo(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		canon, err := Canonical(spec)
		if err != nil {
			return
		}
		again, err := Canonical(canon)
		if err != nil || again != canon {
			t.Fatalf("Canonical(%q) = %q, whose canonical form is %q (err %v)", spec, canon, again, err)
		}
		family, _ := Family(spec)
		if got, err := Family(canon); err != nil || got != family {
			t.Fatalf("Family(%q) = %q but Family(%q) = %q (err %v)", spec, family, canon, got, err)
		}
		for n := 1; n <= 64; n++ {
			g, err := Build(canon, n, uint64(n))
			if err == nil && g.N() != n {
				t.Fatalf("Build(%q, %d) returned a %d-node graph", canon, n, g.N())
			}
		}
	})
}
