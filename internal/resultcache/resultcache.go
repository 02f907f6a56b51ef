// Package resultcache is the standard implementation of elect.Cache: a
// content-addressed store for encoded election results, with a bounded
// in-memory LRU tier and an optional on-disk tier that persists across
// processes.
//
// Keys are elect.Fingerprint content hashes (lowercase hex SHA-256), values
// are elect.EncodeResult wire bytes. Because the deterministic engines are
// byte-reproducible — same spec, parameters, n, seed, engine and fault plan
// produce the identical Result — a hit replays exactly the bytes the
// original run produced; the cache never has to invalidate, only evict.
package resultcache

import (
	"bytes"
	"container/list"
	"os"
	"path/filepath"
	"sync"
)

// DefaultMaxEntries bounds the in-memory tier when WithMaxEntries is not
// given. At the typical few-KB-per-result entry size this caps memory in
// the tens of MB.
const DefaultMaxEntries = 4096

// Cache is a concurrency-safe content-addressed result store. The zero
// value is not usable; construct with New.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	max     int        // in-memory entry bound; <= 0 means unbounded
	dir     string     // on-disk tier root; "" disables it
	stats   Stats
}

type entry struct {
	key   string
	value []byte
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts Gets served from either tier; DiskHits is the subset that
	// had to read the disk tier (an eviction or another process wrote them).
	Hits     int64 `json:"hits"`
	DiskHits int64 `json:"disk_hits"`
	// Misses counts Gets served by neither tier.
	Misses int64 `json:"misses"`
	// Puts counts stores; DiskErrors counts best-effort disk writes or reads
	// that failed (the memory tier still works when the disk is sick).
	Puts       int64 `json:"puts"`
	DiskErrors int64 `json:"disk_errors"`
	// Evictions counts memory-tier LRU evictions.
	Evictions int64 `json:"evictions"`
	// Entries is the current memory-tier population.
	Entries int `json:"entries"`
}

// Option configures New.
type Option func(*Cache)

// WithMaxEntries bounds the in-memory tier to n entries, evicting least
// recently used beyond it; n <= 0 means unbounded. The default is
// DefaultMaxEntries.
func WithMaxEntries(n int) Option { return func(c *Cache) { c.max = n } }

// WithDir adds a persistent on-disk tier rooted at dir (created on first
// write): every Put also writes a file, and a memory miss falls back to a
// disk read. Evicted entries thus stay retrievable, and separate processes
// (or successive CLI invocations) share one cache.
func WithDir(dir string) Option { return func(c *Cache) { c.dir = dir } }

// New builds a cache; see WithMaxEntries and WithDir.
func New(opts ...Option) *Cache {
	c := &Cache{
		entries: make(map[string]*list.Element),
		order:   list.New(),
		max:     DefaultMaxEntries,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Get returns the bytes stored under key, consulting memory then disk.
// Disk finds are promoted back into the memory tier. The returned slice is
// the stored value itself, shared with every other Get of the key: callers
// must treat it as read-only.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.stats.Hits++
		v := el.Value.(*entry).value
		c.mu.Unlock()
		return v, true
	}
	c.mu.Unlock()

	if c.dir != "" && validKey(key) {
		data, err := os.ReadFile(c.path(key))
		if err == nil {
			c.mu.Lock()
			c.stats.Hits++
			c.stats.DiskHits++
			c.storeLocked(key, data)
			c.mu.Unlock()
			return data, true
		}
		if !os.IsNotExist(err) {
			c.mu.Lock()
			c.stats.DiskErrors++
			c.mu.Unlock()
		}
	}

	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	return nil, false
}

// Put stores a copy of value under key in both tiers, so the caller keeps
// value, and a value sliced from a larger buffer does not pin the buffer.
// Keys that are not content hashes (see validKey) are rejected silently —
// the cache is content-addressed, nothing else belongs in it.
func (c *Cache) Put(key string, value []byte) {
	if !validKey(key) {
		return
	}
	v := bytes.Clone(value)
	c.mu.Lock()
	c.stats.Puts++
	c.storeLocked(key, v)
	c.mu.Unlock()

	if c.dir != "" {
		if err := c.writeFile(key, value); err != nil {
			c.mu.Lock()
			c.stats.DiskErrors++
			c.mu.Unlock()
		}
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	return s
}

// storeLocked upserts an entry at the LRU front and evicts beyond the
// bound. It must tolerate keys that are already present — two Gets racing
// through the same disk promotion both land here, and a duplicate list
// element would desync the map from the LRU order. Caller holds c.mu.
func (c *Cache) storeLocked(key string, value []byte) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry).value = value
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&entry{key: key, value: value})
	for c.max > 0 && c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry).key)
		c.stats.Evictions++
	}
}

// path shards entries across 256 subdirectories by hash prefix so huge
// caches don't degrade into one giant directory.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// writeFile writes atomically (tmp + rename) so a concurrent reader never
// sees a torn entry.
func (c *Cache) writeFile(key string, value []byte) error {
	dir := filepath.Dir(c.path(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, key+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(value); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), c.path(key))
}

// validKey accepts exactly the lowercase-hex SHA-256 strings produced by
// elect.Fingerprint; anything else could escape the disk layout or collide
// with it.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		b := key[i]
		if (b < '0' || b > '9') && (b < 'a' || b > 'f') {
			return false
		}
	}
	return true
}
