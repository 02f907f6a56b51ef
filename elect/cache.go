package elect

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Cache is the byte-level store consulted by RunCached and Batch.Cache:
// values are EncodeResult wire bytes keyed by Fingerprint content hashes.
// Implementations must be safe for concurrent use (RunMany workers share
// one cache); internal/resultcache provides the standard in-memory +
// on-disk implementation. Put may drop entries (bounded caches evict), and
// Get may miss spuriously — the contract is only that a hit returns exactly
// the bytes that were Put under that key.
//
// A hit's bytes are read-only: Get may return the stored value itself,
// shared by every caller, and RunCached hands it on without a copy. Put
// copies what it keeps: callers Put slices of larger buffers (a fleet
// chunk reply's cells), which a cached entry must not pin.
type Cache interface {
	Get(key string) ([]byte, bool)
	Put(key string, value []byte)
}

// fingerprintVersion is hashed into every key, so any change to the
// canonical payload below starts a fresh key space instead of aliasing
// entries written by older binaries.
const fingerprintVersion = "cliquelect-fp-v1"

// fingerprintPayload is the canonical encoding of everything that can
// influence a deterministic run's Result. Field order is frozen (the hash
// preimage is its JSON); adding a run-affecting option to the package means
// adding a field here and bumping fingerprintVersion.
type fingerprintPayload struct {
	Version   string       `json:"version"`
	Spec      string       `json:"spec"`
	Engine    string       `json:"engine"`
	N         int          `json:"n"`
	Seed      uint64       `json:"seed"`
	Params    Params       `json:"params"`
	IDs       []int64      `json:"ids"`
	WakeCount int          `json:"wake_count"`
	WakeSet   []int        `json:"wake_set"`
	Delays    DelayProfile `json:"delays"`
	Budget    int64        `json:"budget"`
	Explicit  bool         `json:"explicit"`
	Trace     bool         `json:"trace"`
	Faults    faultsKey    `json:"faults"`
	// Topo is the canonical topology spec; the clique canonicalizes to ""
	// and is omitted, so every clique key's preimage is byte-identical to
	// the pre-topology key space (pinned by TestFingerprintGolden).
	Topo string `json:"topo,omitempty"`
	// RoundTrace distinguishes traced runs — their Result carries a timeline
	// the untraced wire bytes lack. Trailing omitempty (like Topo): untraced
	// keys keep their exact pre-round-trace preimages.
	RoundTrace bool `json:"round_trace,omitempty"`
}

// faultsKey is FaultPlan minus NewAdversary, which has no canonical
// encoding (it is an opaque factory) and therefore makes a run uncacheable.
type faultsKey struct {
	CrashRate   float64 `json:"crash_rate"`
	CrashWindow float64 `json:"crash_window"`
	Crashes     []Crash `json:"crashes"`
	DropRate    float64 `json:"drop_rate"`
	DropFirst   int     `json:"drop_first"`
	DupRate     float64 `json:"dup_rate"`
}

// Fingerprint returns the content-address of the run that Run(spec, opts...)
// would execute: a hex SHA-256 over a canonical encoding of the spec name,
// resolved engine, n, seed, parameters, ID assignment, wake policy, delay
// profile, budget, explicit/trace flags, fault plan and canonical topology.
// Two option lists that resolve to the same configuration — whatever their
// order, and whether they reach Run directly or through RunMany's grid —
// produce the same key; configurations that can differ in any observable
// way never share one.
//
// Fingerprint resolves the options exactly as Run does, so a configuration
// Run rejects before drawing from the seed fails here with Run's error.
// Errors Run finds only while building the run (a bad parameter, ID list,
// wake set or fault plan) do not stop a key, but a run that fails stores
// nothing, so such a key never addresses a cached Result. Among the
// configurations Run accepts, only the nondeterministic ones have no
// fingerprint: EngineLive runs and plans with a FaultPlan.NewAdversary
// factory return an error, which RunCached treats as "bypass the cache".
func Fingerprint(spec Spec, opts ...Option) (string, error) {
	cfg, err := resolve(spec, opts)
	if err != nil {
		return "", err
	}
	return fingerprint(spec, &cfg)
}

// fingerprint is Fingerprint for a configuration resolve accepted: it
// refuses the two nondeterministic cases and hashes the rest.
func fingerprint(spec Spec, c *runConfig) (string, error) {
	if c.engine == EngineLive {
		return "", fmt.Errorf("elect: %s engine runs are nondeterministic and have no fingerprint", c.engine)
	}
	if c.faults.NewAdversary != nil {
		return "", fmt.Errorf("elect: fault plans with a NewAdversary factory have no canonical encoding and no fingerprint")
	}
	payload := fingerprintPayload{
		Version:   fingerprintVersion,
		Spec:      spec.Name,
		Engine:    c.engine.String(),
		N:         c.n,
		Seed:      c.seed,
		Params:    c.params,
		IDs:       c.ids,
		WakeCount: c.wakeCount,
		WakeSet:   c.wakeSet,
		Delays:    c.delays,
		Budget:    c.budget,
		Explicit:  c.explicit,
		Trace:     c.trace,
		Faults: faultsKey{
			CrashRate:   c.faults.CrashRate,
			CrashWindow: c.faults.CrashWindow,
			Crashes:     c.faults.Crashes,
			DropRate:    c.faults.DropRate,
			DropFirst:   c.faults.DropFirst,
			DupRate:     c.faults.DupRate,
		},
		Topo:       c.topo,
		RoundTrace: c.roundTrace,
	}
	data, err := json.Marshal(payload)
	if err != nil {
		return "", fmt.Errorf("elect: encoding fingerprint: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// RunCached is Run with a read-through result cache, for callers that need
// only the Result's wire bytes: exactly what EncodeResult writes for the
// Result Run would return. On a hit it executes nothing and reports
// hit=true; on a miss it runs, stores the bytes, and reports hit=false.
//
// A hit returns the stored bytes when they are canonical, else the Result
// they decode to encoded afresh. The stored bytes are checked on every hit
// (a Cache's bytes need not have been written by this process) by decoding
// them into pooled scratch, so a canonical hit builds no Result and
// allocates nothing that grows with the Result. Callers must not modify
// the returned bytes: a hit's are the cache's own, shared by every hit.
//
// Uncacheable configurations (nil cache, EngineLive, adaptive adversaries)
// fall through to a plain run with hit=false; configuration errors surface
// from it exactly as they would from Run. A corrupted cache entry is
// treated as a miss and overwritten. A Result that EncodeResult rejects
// (non-finite TimeUnits) is an error.
func RunCached(cache Cache, spec Spec, opts ...Option) ([]byte, bool, error) {
	return runCached(cache, spec, opts, nil)
}

// runCached is RunCached that also stores the run's Result in *res when res
// is non-nil: decoded from the hit's bytes, or as the run returned it. With
// a nil res, a canonical hit is only checked, never decoded into a Result.
func runCached(cache Cache, spec Spec, opts []Option, res *Result) ([]byte, bool, error) {
	cfg, err := resolve(spec, opts)
	if err != nil {
		return nil, false, err
	}
	var key string
	if cache != nil {
		if key, err = fingerprint(spec, &cfg); err != nil {
			cache = nil // uncacheable: run as without a cache
		} else if data, ok := cache.Get(key); ok {
			if res == nil && isCanonical(data) {
				return data, true, nil
			}
			if hit, canonical, err := DecodeCanonical(data); err == nil {
				if res != nil {
					*res = hit
				}
				if !canonical {
					data, err = EncodeResult(hit)
				}
				return data, true, err
			}
		}
	}
	ran, err := run(spec, cfg)
	if err != nil {
		return nil, false, err
	}
	data, err := EncodeResult(ran)
	if err != nil {
		return nil, false, err
	}
	if cache != nil {
		cache.Put(key, data)
	}
	if res != nil {
		*res = ran
	}
	return data, false, nil
}
