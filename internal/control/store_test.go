package control

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"testing"
)

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nested", "state.json")
	s := NewFileStore(path)

	// Missing file is a clean zero state, not an error.
	st, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 0 || st.Holder != "" || len(st.Granted) != 0 {
		t.Fatalf("zero load = %+v", st)
	}

	want := State{Epoch: 7, Holder: "http://b", Granted: map[uint64]string{6: "http://a", 7: "http://b"}}
	if err := s.Save(want); err != nil {
		t.Fatal(err)
	}
	// A fresh store over the same path sees the saved state.
	got, err := NewFileStore(path).Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != want.Epoch || got.Holder != want.Holder ||
		got.Granted[6] != "http://a" || got.Granted[7] != "http://b" {
		t.Fatalf("round trip = %+v, want %+v", got, want)
	}
	// No temp-file droppings after a successful save.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

func TestFileStoreCorruptIsError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileStore(path).Load(); err == nil {
		t.Fatal("corrupt state file loaded silently")
	}
	// And New refuses to build a node over it: starting with forgotten
	// votes is the split-brain seed.
	if _, err := New(Config{Self: "http://a", Transport: nopTransport{},
		Store: NewFileStore(path)}); err == nil {
		t.Fatal("node built over a corrupt state file")
	}
}

// FuzzFileStoreLoad feeds arbitrary bytes to FileStore.Load as a state
// file. An accepted file must round-trip: Save then Load returns the same
// State, and a second Save writes the same bytes as the first. A nil and an
// empty Granted count as equal, because Save's omitempty writes neither,
// so Load cannot tell them apart.
func FuzzFileStoreLoad(f *testing.F) {
	for _, seed := range []string{
		`{"epoch":7,"holder":"http://b","granted":{"6":"http://a","7":"http://b"}}`,
		`{}`,
		`{"epoch":7,"holder":"http://b","gra`,
		`{"epoch":18446744073709551615,"granted":{"18446744073709551615":"http://a"}}`,
		`{"epoch":1,"granted":{"one":"http://a"}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "state.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := NewFileStore(path)
		st, err := s.Load()
		if err != nil {
			return
		}
		if err := s.Save(st); err != nil {
			t.Fatal(err)
		}
		first, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		again, err := s.Load()
		if err != nil {
			t.Fatalf("Load rejects what Save wrote: %v\n%s", err, first)
		}
		if again.Epoch != st.Epoch || again.Holder != st.Holder || !maps.Equal(again.Granted, st.Granted) {
			t.Fatalf("round trip = %+v, want %+v", again, st)
		}
		if err := s.Save(again); err != nil {
			t.Fatal(err)
		}
		second, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("second Save wrote different bytes:\n%s\nvs\n%s", first, second)
		}
	})
}
