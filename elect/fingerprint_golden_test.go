package elect

import (
	"fmt"
	"os"
	"testing"
)

// goldenFingerprints pins the exact hex fingerprints of representative clique
// configurations as they were computed before the topology subsystem landed
// (PR 5 tree). Clique runs must keep these keys forever: the on-disk result
// cache and the committed BENCH artifacts are addressed by them, and a drift
// here silently invalidates both. If this test fails, the fingerprint
// preimage changed for clique runs — that is a cache-format break and needs
// a fingerprintVersion bump plus a BENCH regeneration, not a golden update.
//
// Regenerate (only after a deliberate, documented break) with:
//
//	FP_GOLDEN_PRINT=1 go test ./elect -run TestFingerprintGolden -v
var goldenFingerprints = []struct {
	name string
	spec string
	opts []Option
	want string
}{
	{
		name: "tradeoff-defaults",
		spec: "tradeoff",
		want: "6d30d310c74a5a04c2d6a89a3ce01cf178db42cecab5dc5af47626b0e029bd7e",
	},
	{
		name: "tradeoff-n256-seed7-k4",
		spec: "tradeoff",
		opts: []Option{WithN(256), WithSeed(7), WithParams(Params{K: 4, D: 2, G: 1, Eps: 1.0 / 16})},
		want: "ddcda382b1081545c6f234812f86c358188cf94465017ea9757c32b4b260a541",
	},
	{
		name: "sublinear-n128-seed3",
		spec: "sublinear",
		opts: []Option{WithN(128), WithSeed(3)},
		want: "24da18290678a79e8a74a81654c3dfcb7cf153c8bc6cb2b9ccf4243790b5eec0",
	},
	{
		name: "asynctradeoff-uniform-delays",
		spec: "asynctradeoff",
		opts: []Option{WithN(64), WithSeed(5), WithDelays(DelayUniform)},
		want: "39b98c2a338b5f544a5ff64ecc63c697366d67e5815a7f0aa8a5889af52b9bbe",
	},
	{
		name: "smallid-explicit",
		spec: "smallid",
		opts: []Option{WithN(100), WithSeed(2), WithExplicit()},
		want: "38cc29acf04db64f59aa42572d68baf69e2e17694adf559d5cf32ef26209e31f",
	},
	{
		name: "tradeoff-faults-wake-budget-trace",
		spec: "tradeoff",
		opts: []Option{
			WithN(96), WithSeed(11), WithWake(8), WithMessageBudget(100000), WithTrace(),
			WithFaults(FaultPlan{CrashRate: 0.1, CrashWindow: 0.5, DropRate: 0.05, DupRate: 0.01}),
		},
		want: "6a1237f9e09f891826a291aee9fbf5b2857f8fa6a56b9ebc1c31042b971cb360",
	},
	{
		// Pins the "crashes":[{"node":…,"at":…}] and drop_first parts of
		// the preimage.
		name: "tradeoff-explicit-crash-dropfirst",
		spec: "tradeoff",
		opts: []Option{
			WithN(64), WithSeed(9),
			WithFaults(FaultPlan{Crashes: []Crash{{Node: 3, At: 1.5}}, DropFirst: 4}),
		},
		want: "f8bf607236b9a11a19cc918b7f74be4ae04f8980cd1332993d99c539c54baa64",
	},
}

func TestFingerprintGolden(t *testing.T) {
	print := os.Getenv("FP_GOLDEN_PRINT") != ""
	for _, tc := range goldenFingerprints {
		spec, err := Lookup(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := Fingerprint(spec, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if print {
			fmt.Printf("golden %-36s %s\n", tc.name, got)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: clique fingerprint drifted from its pre-topology value\n got  %s\n want %s",
				tc.name, got, tc.want)
		}
	}
}
