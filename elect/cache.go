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

// RunCached is Run with a read-through result cache. On a hit it decodes
// and returns the stored Result without executing anything — byte-for-byte
// what the original run produced — and reports hit=true. On a miss it runs,
// stores the encoded Result, and reports hit=false.
//
// Whenever it returns no error it also returns the Result's wire bytes,
// exactly what EncodeResult writes for it: on a miss, the bytes it stored;
// on a hit, the stored bytes when they are canonical, else the decoded
// Result encoded afresh; on an uncacheable run, the Result encoded afresh.
// A hit is always decoded: a Cache's bytes need not have been written by
// this process, and the decode is what checks them. Callers must not
// modify the bytes.
//
// Uncacheable configurations (nil cache, EngineLive, adaptive adversaries)
// fall through to a plain Run with hit=false; configuration errors surface
// from that Run exactly as they would without a cache. A corrupted cache
// entry is treated as a miss and overwritten. A Result that EncodeResult
// rejects (non-finite TimeUnits) is an error.
func RunCached(cache Cache, spec Spec, opts ...Option) (Result, []byte, bool, error) {
	cfg, err := resolve(spec, opts)
	if err != nil {
		return rejected(spec, cfg), nil, false, err
	}
	var key string
	if cache != nil {
		if key, err = fingerprint(spec, &cfg); err != nil {
			cache = nil // uncacheable: run as without a cache
		} else if data, ok := cache.Get(key); ok {
			if res, canonical, err := DecodeCanonical(data); err == nil {
				if !canonical {
					data, err = EncodeResult(res)
				}
				return res, data, true, err
			}
		}
	}
	res, err := run(spec, cfg)
	if err != nil {
		return res, nil, false, err
	}
	data, err := EncodeResult(res)
	if err != nil {
		return res, nil, false, err
	}
	if cache != nil {
		cache.Put(key, data)
	}
	return res, data, false, nil
}
