package resultcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// key derives a well-formed content hash for test payloads.
func key(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New()
	if _, ok := c.Get(key("a")); ok {
		t.Fatal("hit on empty cache")
	}
	value := []byte("alpha")
	c.Put(key("a"), value)
	// Put copies: mutating its argument leaves the entry unchanged.
	value[0] = 'X'
	got, ok := c.Get(key("a"))
	if !ok || string(got) != "alpha" {
		t.Fatalf("got %q ok=%v", got, ok)
	}
	// Get hands out the stored bytes themselves, read-only, to every caller.
	again, _ := c.Get(key("a"))
	if &again[0] != &got[0] {
		t.Fatal("two Gets of one entry returned different copies, want the stored bytes")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Puts != 1 || s.Entries != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestBadKeysRejected(t *testing.T) {
	c := New(WithDir(t.TempDir()))
	for _, bad := range []string{"", "short", "../../../../etc/passwd", key("x")[:63] + "Z"} {
		c.Put(bad, []byte("v"))
		if _, ok := c.Get(bad); ok {
			t.Errorf("bad key %q was stored", bad)
		}
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("bad keys populated the cache: %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(WithMaxEntries(2))
	c.Put(key("a"), []byte("a"))
	c.Put(key("b"), []byte("b"))
	c.Get(key("a")) // a is now most recent
	c.Put(key("c"), []byte("c"))
	if _, ok := c.Get(key("b")); ok {
		t.Error("least recently used entry survived eviction")
	}
	if _, ok := c.Get(key("a")); !ok {
		t.Error("recently used entry was evicted")
	}
	if _, ok := c.Get(key("c")); !ok {
		t.Error("new entry was evicted")
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestDiskTierPersists(t *testing.T) {
	dir := t.TempDir()
	a := New(WithDir(dir))
	a.Put(key("a"), []byte("alpha"))

	// A fresh cache over the same dir serves the entry from disk.
	b := New(WithDir(dir))
	got, ok := b.Get(key("a"))
	if !ok || string(got) != "alpha" {
		t.Fatalf("disk read got %q ok=%v", got, ok)
	}
	if s := b.Stats(); s.DiskHits != 1 || s.Entries != 1 {
		t.Fatalf("stats %+v", s)
	}
	// ...and promotion means the second read is a memory hit.
	if _, ok := b.Get(key("a")); !ok {
		t.Fatal("promoted entry missing")
	}
	if s := b.Stats(); s.DiskHits != 1 || s.Hits != 2 {
		t.Fatalf("stats after promotion %+v", s)
	}

	// Evicted entries stay retrievable through the disk tier.
	small := New(WithDir(dir), WithMaxEntries(1))
	small.Put(key("a"), []byte("alpha"))
	small.Put(key("b"), []byte("beta"))
	if got, ok := small.Get(key("a")); !ok || string(got) != "alpha" {
		t.Fatalf("evicted entry lost: %q ok=%v", got, ok)
	}

	// The layout is sharded by hash prefix.
	k := key("a")
	if _, err := os.Stat(filepath.Join(dir, k[:2], k+".json")); err != nil {
		t.Fatalf("expected sharded layout: %v", err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(WithMaxEntries(64), WithDir(t.TempDir()))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := key(fmt.Sprintf("%d", i%32))
				c.Put(k, []byte{byte(i)})
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if s := c.Stats(); s.Puts != 800 {
		t.Fatalf("stats %+v", s)
	}
}

// TestPromotionThenPutKeepsOneEntry: a disk promotion followed by a Put of
// the same key must upsert, not grow a duplicate LRU element.
func TestPromotionThenPutKeepsOneEntry(t *testing.T) {
	dir := t.TempDir()
	a := New(WithDir(dir))
	a.Put(key("a"), []byte("alpha"))

	b := New(WithDir(dir), WithMaxEntries(2))
	if _, ok := b.Get(key("a")); !ok { // promoted from disk
		t.Fatal("disk miss")
	}
	b.Put(key("a"), []byte("alpha2")) // upsert over the promoted entry
	if s := b.Stats(); s.Entries != 1 {
		t.Fatalf("entries %d after promotion+put, want 1", s.Entries)
	}
	// With the bound at 2, adding two more keys must evict exactly once —
	// a duplicate element for "a" would desync the count.
	b.Put(key("b"), []byte("beta"))
	b.Put(key("c"), []byte("gamma"))
	if s := b.Stats(); s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("stats %+v, want 2 entries / 1 eviction", s)
	}
	if got, ok := b.Get(key("c")); !ok || string(got) != "gamma" {
		t.Fatalf("hot entry lost: %q ok=%v", got, ok)
	}
}

func TestOverwriteRefreshes(t *testing.T) {
	c := New()
	c.Put(key("a"), []byte("one"))
	c.Put(key("a"), []byte("two"))
	got, ok := c.Get(key("a"))
	if !ok || !bytes.Equal(got, []byte("two")) {
		t.Fatalf("got %q ok=%v", got, ok)
	}
	if s := c.Stats(); s.Entries != 1 || s.Puts != 2 {
		t.Fatalf("stats %+v", s)
	}
}
