package flatmap

import (
	"testing"

	"cliquelect/internal/xrand"
)

// TestU64MapAgainstMap drives the open-addressing table and a plain Go map
// through the same random insert/overwrite/lookup trace, including the
// key-0 edge (portmap's endpoint(0,0) == 0, representable only because keys
// are stored +1).
func TestU64MapAgainstMap(t *testing.T) {
	rng := xrand.New(42)
	var m U64Map
	ref := make(map[uint64]uint64)
	for i := 0; i < 30000; i++ {
		key := rng.Uint64() % 4096 // dense keyspace forces collisions + growth
		val := rng.Uint64()
		ref[key] = val
		m.Put(key, val)
		probe := rng.Uint64() % 8192
		gv, gok := m.Get(probe)
		wv, wok := ref[probe]
		if gok != wok || (gok && gv != wv) {
			t.Fatalf("step %d: Get(%d) = (%d,%v), want (%d,%v)", i, probe, gv, gok, wv, wok)
		}
	}
	if m.Len() != len(ref) {
		t.Fatalf("table holds %d entries, map holds %d", m.Len(), len(ref))
	}
}

func TestU64MapZeroKeyAndReset(t *testing.T) {
	var m U64Map
	if _, ok := m.Get(0); ok {
		t.Fatal("empty map reports key 0 present")
	}
	m.Put(0, 77)
	if v, ok := m.Get(0); !ok || v != 77 {
		t.Fatalf("Get(0) = (%d,%v), want (77,true)", v, ok)
	}
	m.Put(0, 78) // overwrite
	if v, _ := m.Get(0); v != 78 {
		t.Fatalf("overwrite lost: %d", v)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d after overwrite, want 1", m.Len())
	}
	was := cap(m.slots)
	m.Reset()
	if m.Len() != 0 || cap(m.slots) != was {
		t.Fatal("Reset must empty the map but keep capacity")
	}
	if _, ok := m.Get(0); ok {
		t.Fatal("key survived Reset")
	}
}

func TestU64SetAgainstMap(t *testing.T) {
	rng := xrand.New(7)
	var s U64Set
	ref := make(map[uint64]struct{})
	for i := 0; i < 30000; i++ {
		key := rng.Uint64() % 4096
		ref[key] = struct{}{}
		s.Add(key)
		probe := rng.Uint64() % 8192
		_, wok := ref[probe]
		if got := s.Has(probe); got != wok {
			t.Fatalf("step %d: Has(%d) = %v, want %v", i, probe, got, wok)
		}
	}
	if s.Len() != len(ref) {
		t.Fatalf("set holds %d entries, map holds %d", s.Len(), len(ref))
	}
	s.Reset()
	if s.Len() != 0 || s.Has(1) {
		t.Fatal("Reset must empty the set")
	}
}
