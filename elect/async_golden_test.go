package elect

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"testing"
)

// asyncGolden pins the async simulator's executions byte for byte. No async
// spec reaches the committed BENCH_*.json sweep, so without this test an
// engine change could move every async Result and no golden would notice.
// Each variant hashes EncodeResult over a grid: every async spec × n ×
// seeds 1–6 × delay profile × fault plan. The hashes were computed before
// the event loop gained its FIFO lane and its unit-delay shortcut; an
// engine optimization must never move them.
//
// Regenerate (only after a deliberate, documented change to async
// executions) with:
//
//	ASYNC_GOLDEN_PRINT=1 go test ./elect -run TestAsyncGolden -v
var asyncGolden = []struct {
	variant string
	ns      []int
	opts    func(n int) []Option
	want    string
}{
	{
		variant: "plain",
		ns:      []int{16, 64, 200, 512},
		opts:    func(int) []Option { return nil },
		want:    "8518c4c88a74ba55fddf4a8d5828c1dc7a494187842a8dfe1e5c227ba1ec9286",
	},
	{
		variant: "roundtrace",
		ns:      []int{16, 64, 200},
		opts:    func(int) []Option { return []Option{WithRoundTrace()} },
		want:    "daa45cf85937378bee945216fdfede04eaeb08c433d2f8e3913a3ff23c20df35",
	},
	{
		// Adversarial wake-up: three nodes wake, every other node is woken
		// by its first message.
		variant: "wakeset",
		ns:      []int{16, 64, 200},
		opts:    func(n int) []Option { return []Option{WithWakeSet([]int{0, n / 2, n - 1})} },
		want:    "ae62610d7148785282c3d58418cb87afa271ea2bc199c24fab09af82f403baf9",
	},
}

// asyncGoldenFaults is the grid's faulted plan, in ParseFaults syntax.
const asyncGoldenFaults = "drop=0.1, crash=0.05, dup=0.01, dropfirst=4, window=6"

func TestAsyncGolden(t *testing.T) {
	print := os.Getenv("ASYNC_GOLDEN_PRINT") != ""
	faulted, err := ParseFaults(asyncGoldenFaults)
	if err != nil {
		t.Fatal(err)
	}
	plans := []FaultPlan{{}, faulted}
	specs := []string{"asynctradeoff", "asyncafekgafni", "asynclinear"}
	delays := []DelayProfile{DelayUnit, DelayUniform, DelaySkew}
	for _, tc := range asyncGolden {
		h := sha256.New()
		runs := 0
		for _, name := range specs {
			spec := mustSpec(t, name)
			for _, n := range tc.ns {
				for _, d := range delays {
					for pi, plan := range plans {
						opts := append([]Option{WithDelays(d), WithFaults(plan)}, tc.opts(n)...)
						br, err := RunMany(spec, Batch{Ns: []int{n}, Seeds: Seeds(1, 6), Options: opts})
						if err != nil {
							t.Fatalf("%s %s n=%d delays=%s plan=%d: %v", tc.variant, name, n, d, pi, err)
						}
						for _, res := range br.Runs {
							b, err := EncodeResult(res)
							if err != nil {
								t.Fatal(err)
							}
							fmt.Fprintf(h, "%s n=%d seed=%d delays=%s plan=%d\n", name, n, res.Seed, d, pi)
							h.Write(b)
							h.Write([]byte{'\n'})
							runs++
						}
					}
				}
			}
		}
		got := hex.EncodeToString(h.Sum(nil))
		if print {
			fmt.Printf("async golden %-10s %s (%d runs)\n", tc.variant, got, runs)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: async executions drifted over %d runs\n got  %s\n want %s", tc.variant, runs, got, tc.want)
		}
	}
}
