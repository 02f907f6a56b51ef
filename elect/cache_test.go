package elect

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cliquelect/internal/resultcache"
)

// memCache is a minimal Cache for tests, with hit/miss accounting.
type memCache struct {
	mu     sync.Mutex
	m      map[string][]byte
	hits   int
	misses int
}

func newMemCache() *memCache { return &memCache{m: map[string][]byte{}} }

func (c *memCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

func (c *memCache) Put(key string, value []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = append([]byte(nil), value...)
}

func mustSpec(t *testing.T, name string) Spec {
	t.Helper()
	spec, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestFingerprintStableAcrossOptionOrder(t *testing.T) {
	spec := mustSpec(t, "tradeoff")
	a, err := Fingerprint(spec, WithN(128), WithSeed(9), WithParams(Params{K: 4}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fingerprint(spec, WithParams(Params{K: 4}), WithSeed(9), WithN(128))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("option order changed the key: %s vs %s", a, b)
	}
	if len(a) != 64 || strings.Trim(a, "0123456789abcdef") != "" {
		t.Errorf("key %q is not hex SHA-256", a)
	}
}

// TestFingerprintNeverCollides drives the satellite requirement directly:
// differing fault plans, params, seeds — or any other run-affecting knob —
// never share a key.
func TestFingerprintNeverCollides(t *testing.T) {
	tradeoff := mustSpec(t, "tradeoff")
	async := mustSpec(t, "asynctradeoff")
	variants := []struct {
		name string
		spec Spec
		opts []Option
	}{
		{"base", tradeoff, nil},
		{"other-spec", mustSpec(t, "afekgafni"), nil},
		{"n", tradeoff, []Option{WithN(65)}},
		{"seed", tradeoff, []Option{WithSeed(2)}},
		{"params-k", tradeoff, []Option{WithParams(Params{K: 4, D: 2, G: 1, Eps: 1.0 / 16})}},
		{"params-eps", tradeoff, []Option{WithParams(Params{K: 3, D: 2, G: 1, Eps: 0.25})}},
		{"faults-drop", tradeoff, []Option{WithFaults(FaultPlan{DropRate: 0.1})}},
		{"faults-drop2", tradeoff, []Option{WithFaults(FaultPlan{DropRate: 0.2})}},
		{"faults-crash", tradeoff, []Option{WithFaults(FaultPlan{CrashRate: 0.1})}},
		{"faults-window", tradeoff, []Option{WithFaults(FaultPlan{CrashRate: 0.1, CrashWindow: 4})}},
		{"faults-dropfirst", tradeoff, []Option{WithFaults(FaultPlan{DropFirst: 3})}},
		{"faults-dup", tradeoff, []Option{WithFaults(FaultPlan{DupRate: 0.1})}},
		{"faults-explicit-crash", tradeoff, []Option{WithFaults(FaultPlan{Crashes: []Crash{{Node: 1, At: 2}}})}},
		{"budget", tradeoff, []Option{WithMessageBudget(1 << 20)}},
		{"explicit", tradeoff, []Option{WithExplicit()}},
		{"trace", tradeoff, []Option{WithTrace()}},
		{"wake", tradeoff, []Option{WithWake(3)}},
		{"wakeset", tradeoff, []Option{WithWakeSet([]int{0, 1, 2})}},
		{"ids", tradeoff, []Option{WithN(2), WithIDs([]int64{5, 9})}},
		{"async-base", async, nil},
		{"async-delays", async, []Option{WithDelays(DelayUniform)}},
	}
	seen := map[string]string{}
	for _, v := range variants {
		key, err := Fingerprint(v.spec, v.opts...)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("variants %s and %s collide on %s", prev, v.name, key)
		}
		seen[key] = v.name
	}
}

func TestFingerprintUncacheable(t *testing.T) {
	async := mustSpec(t, "asynctradeoff")
	if _, err := Fingerprint(async, WithParams(Params{K: 2}), WithEngine(EngineLive)); err == nil {
		t.Error("live engine got a fingerprint")
	}
	tradeoff := mustSpec(t, "tradeoff")
	if _, err := Fingerprint(tradeoff, WithFaults(FaultPlan{NewAdversary: CrashLowestSender(1)})); err == nil {
		t.Error("adaptive adversary got a fingerprint")
	}
	if _, err := Fingerprint(Spec{Name: "handmade"}); err == nil {
		t.Error("non-registry spec got a fingerprint")
	}
}

// TestFingerprintAgreesWithRun: a configuration Run rejects before
// executing fails Fingerprint with the same error, so no cache key names a
// run that cannot happen.
func TestFingerprintAgreesWithRun(t *testing.T) {
	tradeoff := mustSpec(t, "tradeoff")
	async := mustSpec(t, "asynctradeoff")
	for _, c := range []struct {
		name string
		spec Spec
		opts []Option
	}{
		{"n=0", tradeoff, []Option{WithN(0)}},
		{"trace-on-async", async, []Option{WithTrace()}},
		{"delays-on-sync", tradeoff, []Option{WithDelays(DelayUniform)}},
		{"explicit-on-async", async, []Option{WithExplicit()}},
		{"sync-engine-on-async", async, []Option{WithEngine(EngineSync)}},
		{"ring-on-tradeoff", tradeoff, []Option{WithTopology("ring")}},
	} {
		_, runErr := Run(c.spec, c.opts...)
		if runErr == nil {
			t.Fatalf("%s: Run accepted the configuration", c.name)
		}
		key, err := Fingerprint(c.spec, c.opts...)
		if err == nil {
			t.Errorf("%s: Fingerprint = %s for a configuration Run rejects with %q", c.name, key, runErr)
		} else if err.Error() != runErr.Error() {
			t.Errorf("%s: Fingerprint error %q, Run error %q", c.name, err, runErr)
		}
	}
}

func TestRunCachedHitIsByteIdentical(t *testing.T) {
	cache := newMemCache()
	spec := mustSpec(t, "tradeoff")
	opts := []Option{WithN(64), WithSeed(11), WithParams(Params{K: 4})}

	coldBytes, hit, err := RunCached(cache, spec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("cold run reported a cache hit")
	}
	warmBytes, hit, err := RunCached(cache, spec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("warm run missed the cache")
	}
	if !bytes.Equal(coldBytes, warmBytes) {
		t.Errorf("cached replay not byte-identical:\n %s\n %s", coldBytes, warmBytes)
	}

	// The live engine bypasses the cache entirely.
	async := mustSpec(t, "asynctradeoff")
	liveOpts := []Option{WithN(16), WithSeed(1), WithParams(Params{K: 2}), WithEngine(EngineLive)}
	if _, hit, err := RunCached(cache, async, liveOpts...); err != nil || hit {
		t.Fatalf("live run: hit=%v err=%v", hit, err)
	}
	if _, hit, err := RunCached(cache, async, liveOpts...); err != nil || hit {
		t.Fatalf("repeated live run: hit=%v err=%v, want bypass", hit, err)
	}
}

func TestRunCachedCorruptEntryRecovers(t *testing.T) {
	cache := newMemCache()
	spec := mustSpec(t, "tradeoff")
	opts := []Option{WithN(32), WithSeed(5)}
	key, err := Fingerprint(spec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(key, []byte("not json"))
	wire, hit, err := RunCached(cache, spec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := DecodeResult(wire); err != nil || hit || !res.OK {
		t.Fatalf("corrupt entry: hit=%v ok=%v err=%v, want recompute", hit, res.OK, err)
	}
	if _, hit, _ := RunCached(cache, spec, opts...); !hit {
		t.Error("recomputed entry was not stored back")
	}
}

// TestRunCachedBytes: RunCached returns the bytes it stored on a miss, the
// canonical bytes it read on a hit, EncodeResult's bytes for an uncached
// or uncacheable run (stored nowhere), and on a hit whose bytes decode but
// are not canonical (2.5E+3 where EncodeResult writes 2500) EncodeResult's
// bytes for the decoded Result, which runCached also hands its caller.
func TestRunCachedBytes(t *testing.T) {
	cache := newMemCache()
	spec := mustSpec(t, "tradeoff")
	opts := []Option{WithN(32), WithSeed(6)}
	key, err := Fingerprint(spec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	wire, hit, err := RunCached(cache, spec, opts...)
	if err != nil || hit {
		t.Fatalf("miss: hit=%v err=%v", hit, err)
	}
	res, err := Run(spec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := EncodeResult(res)
	if !bytes.Equal(wire, want) || !bytes.Equal(cache.m[key], want) {
		t.Fatalf("miss bytes %s, stored %s, want %s", wire, cache.m[key], want)
	}
	if wire, hit, err := RunCached(cache, spec, opts...); err != nil || !hit || !bytes.Equal(wire, want) {
		t.Fatalf("hit: hit=%v err=%v bytes %s, want %s", hit, err, wire, want)
	}
	var got Result
	if wire, hit, err := runCached(cache, spec, opts, &got); err != nil || !hit || !bytes.Equal(wire, want) || !reflect.DeepEqual(got, res) {
		t.Fatalf("hit with a Result: hit=%v err=%v bytes %s, want %s", hit, err, wire, want)
	}
	if wire, _, err := RunCached(nil, spec, opts...); err != nil || !bytes.Equal(wire, want) {
		t.Fatalf("uncached run: bytes %s err=%v, want %s", wire, err, want)
	}
	adaptive := append([]Option{WithFaults(FaultPlan{NewAdversary: CrashLowestSender(1)})}, opts...)
	crashed, err := Run(spec, adaptive...)
	if err != nil {
		t.Fatal(err)
	}
	wire, hit, err = RunCached(cache, spec, adaptive...)
	if fresh, _ := EncodeResult(crashed); err != nil || hit || !bytes.Equal(wire, fresh) || len(cache.m) != 1 {
		t.Fatalf("uncacheable run: hit=%v err=%v bytes %s, want %s and 1 stored entry, have %d",
			hit, err, wire, fresh, len(cache.m))
	}

	planted := bytes.Replace(want, []byte(`"time_units":0,`), []byte(`"time_units":2.5E+3,`), 1)
	cache.Put(key, planted)
	wire, hit, err = RunCached(cache, spec, opts...)
	if err != nil || !hit {
		t.Fatalf("planted hit: hit=%v err=%v", hit, err)
	}
	if wire, hit, err := runCached(cache, spec, opts, &got); err != nil || !hit || got.TimeUnits != 2500 {
		t.Fatalf("planted hit with a Result: hit=%v err=%v time_units %v, want 2500 (bytes %s)", hit, err, got.TimeUnits, wire)
	}
	fresh, _ := EncodeResult(got)
	if !bytes.Equal(wire, fresh) || !bytes.Contains(wire, []byte(`"time_units":2500,`)) {
		t.Fatalf("planted hit bytes %s, want %s", wire, fresh)
	}
}

// TestRunCachedHitAllocs pins the hit path through resultcache: a warm
// canonical hit is checked in pooled scratch and returned as the cache's
// own bytes, so it allocates no more at n = 2048 than at n = 256, and only
// a small constant for the fingerprint key.
func TestRunCachedHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the budget is enforced in the non-race build")
	}
	spec := mustSpec(t, "tradeoff")
	cache := resultcache.New()
	allocs := func(n int) float64 {
		opts := []Option{WithN(n), WithSeed(1), WithParams(Params{K: 4})}
		for _, want := range []bool{false, true} { // fill, then warm the scratch
			if _, hit, err := RunCached(cache, spec, opts...); err != nil || hit != want {
				t.Fatalf("n=%d: hit=%v err=%v, want hit=%v", n, hit, err, want)
			}
		}
		return testing.AllocsPerRun(50, func() {
			if _, hit, err := RunCached(cache, spec, opts...); err != nil || !hit {
				t.Fatalf("n=%d: hit=%v err=%v", n, hit, err)
			}
		})
	}
	small, large := allocs(256), allocs(2048)
	const budget = 5 // resolving the options and building the key
	if large > small || large > budget {
		t.Fatalf("a canonical hit allocated %.1f times at n=2048 and %.1f at n=256, want no growth and at most %d",
			large, small, budget)
	}
}

// TestFingerprintRunVsRunMany proves the satellite property end to end: the
// same logical run reaches the same key whether it goes through Run or
// through RunMany's (n, seed) grid, so each side hits entries the other
// side stored.
func TestFingerprintRunVsRunMany(t *testing.T) {
	cache := newMemCache()
	spec := mustSpec(t, "tradeoff")
	shared := []Option{WithParams(Params{K: 4})}

	batch, err := RunMany(spec, Batch{
		Ns: []int{16, 32}, Seeds: Seeds(1, 2), Options: shared, Cache: cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cache.m) != 4 {
		t.Fatalf("batch stored %d entries, want 4", len(cache.m))
	}
	for i, n := range []int{16, 32} {
		for j, seed := range []uint64{1, 2} {
			opts := append([]Option{}, shared...)
			opts = append(opts, WithN(n), WithSeed(seed))
			key, err := Fingerprint(spec, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := cache.m[key]; !ok {
				t.Fatalf("single-run key for n=%d seed=%d not in batch-populated cache", n, seed)
			}
			wire, hit, err := RunCached(cache, spec, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !hit {
				t.Errorf("n=%d seed=%d: Run missed the RunMany-populated cache", n, seed)
			}
			if want, _ := EncodeResult(batch.Runs[i*2+j]); !bytes.Equal(wire, want) {
				t.Errorf("n=%d seed=%d: cached Run diverged from batch result", n, seed)
			}
		}
	}
}

func TestRunManyCacheReplayIdentical(t *testing.T) {
	spec := mustSpec(t, "tradeoff")
	b := Batch{Ns: []int{16, 32}, Seeds: Seeds(1, 3)}
	plain, err := RunMany(spec, b)
	if err != nil {
		t.Fatal(err)
	}
	cache := newMemCache()
	b.Cache = cache
	cold, err := RunMany(spec, b)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunMany(spec, b)
	if err != nil {
		t.Fatal(err)
	}
	plainBytes, _ := EncodeBatchResult(plain)
	coldBytes, _ := EncodeBatchResult(cold)
	warmBytes, _ := EncodeBatchResult(warm)
	if !bytes.Equal(plainBytes, coldBytes) || !bytes.Equal(coldBytes, warmBytes) {
		t.Error("cached batch replay diverged from uncached batch")
	}
	if cache.hits < 6 {
		t.Errorf("warm batch produced %d hits, want >= 6", cache.hits)
	}
}

// TestRunManyProgressAndCancel: progress counts every cell and a canceled
// batch returns ErrCanceled, at the default worker count and with one
// worker; one worker canceled mid-batch has run a prefix of the grid.
func TestRunManyProgressAndCancel(t *testing.T) {
	spec := mustSpec(t, "tradeoff")
	for _, workers := range []int{0, 1} {
		var mu sync.Mutex
		var calls, maxDone, total int
		_, err := RunMany(spec, Batch{
			Ns: []int{16, 32}, Seeds: Seeds(1, 3), Workers: workers,
			OnResult: func(done, tot int) {
				mu.Lock()
				defer mu.Unlock()
				calls++
				if done > maxDone {
					maxDone = done
				}
				total = tot
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls != 6 || maxDone != 6 || total != 6 {
			t.Errorf("workers=%d progress: calls=%d maxDone=%d total=%d, want 6/6/6",
				workers, calls, maxDone, total)
		}

		cancel := make(chan struct{})
		close(cancel)
		if _, err := RunMany(spec, Batch{
			Ns: []int{16, 32}, Seeds: Seeds(1, 8), Workers: workers, Cancel: cancel,
		}); err != ErrCanceled {
			t.Errorf("workers=%d pre-canceled batch returned %v, want ErrCanceled", workers, err)
		}
	}

	// One worker claims cells in grid order and checks Cancel before each
	// claim: canceled after two cells, exactly the first two ran, which the
	// cache shows by the entries they stored.
	b := Batch{Ns: []int{16, 32}, Seeds: Seeds(1, 4), Workers: 1, Cache: newMemCache()}
	cancel := make(chan struct{})
	b.Cancel = cancel
	b.OnResult = func(done, _ int) {
		if done == 2 {
			close(cancel)
		}
	}
	if _, err := RunMany(spec, b); err != ErrCanceled {
		t.Fatalf("mid-batch cancel returned %v, want ErrCanceled", err)
	}
	ran := b.Cache.(*memCache).m
	if len(ran) != 2 {
		t.Fatalf("canceled single-worker batch ran %d cells, want 2", len(ran))
	}
	for idx := range 2 {
		key, err := Fingerprint(spec, CellOptions(&b, b.Ns, b.Seeds, idx)...)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := ran[key]; !ok {
			t.Fatalf("cell %d did not run: the canceled batch ran no grid prefix", idx)
		}
	}
}
