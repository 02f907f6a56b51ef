package elect

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"testing"
)

// syncGolden pins the sync simulator's executions byte for byte where the
// committed BENCH_*.json sweep does not reach: that sweep covers clique
// tradeoff under simultaneous wake-up only, so a change to the wake set or
// topology path of simsync could move Results and no golden would notice.
// Each variant hashes EncodeResult over a grid: sync spec × n × seeds 1–6
// × wake model × fault plan (the faulted plan for FaultTolerant specs
// only), plus, for the general-graph specs, the topology axis.
//
// Regenerate (only after a deliberate, documented change to sync
// executions) with:
//
//	SYNC_GOLDEN_PRINT=1 go test ./elect -run TestSyncGolden -v
var syncGolden = []struct {
	variant string
	specs   []string // nil: every sync spec in the registry
	topos   []string // nil: the clique
	want    string
}{
	{
		variant: "clique",
		want:    "99648d82839b22dda40cbad349aa54970261f8d01d4d8edec66a574a447b2dfa",
	},
	{
		variant: "topology",
		specs:   []string{"kuttenmoses", "kpprt"},
		topos:   []string{"ring", "torus", "rreg:d=4", "power:m=2"},
		want:    "5db7ce0b1ad8d84b039decdd74ab90d62df9ad4c21711147f8b27b6425b906c0",
	},
}

func TestSyncGolden(t *testing.T) {
	print := os.Getenv("SYNC_GOLDEN_PRINT") != ""
	faulted, err := ParseFaults(asyncGoldenFaults)
	if err != nil {
		t.Fatal(err)
	}
	var syncSpecs []string
	for _, s := range Registry() {
		if s.Model == Sync {
			syncSpecs = append(syncSpecs, s.Name)
		}
	}
	ns := []int{16, 64, 200}
	wakes := []struct {
		name string
		opts func(n int) []Option
	}{
		{"simultaneous", func(int) []Option { return nil }},
		{"wakeset", func(n int) []Option { return []Option{WithWakeSet([]int{0, n / 2, n - 1})} }},
	}
	for _, tc := range syncGolden {
		specs := tc.specs
		if specs == nil {
			specs = syncSpecs
		}
		h := sha256.New()
		runs := 0
		for _, name := range specs {
			spec := mustSpec(t, name)
			plans := []FaultPlan{{}}
			if spec.FaultTolerant {
				plans = append(plans, faulted)
			}
			for _, n := range ns {
				for _, w := range wakes {
					for pi, plan := range plans {
						opts := append([]Option{WithFaults(plan)}, w.opts(n)...)
						br, err := RunMany(spec, Batch{Ns: []int{n}, Seeds: Seeds(1, 6), Topos: tc.topos, Options: opts})
						if err != nil {
							t.Fatalf("%s %s n=%d wake=%s plan=%d: %v", tc.variant, name, n, w.name, pi, err)
						}
						for _, res := range br.Runs {
							b, err := EncodeResult(res)
							if err != nil {
								t.Fatal(err)
							}
							fmt.Fprintf(h, "%s n=%d seed=%d topo=%s wake=%s plan=%d\n", name, n, res.Seed, res.Topo, w.name, pi)
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
			fmt.Printf("sync golden %-10s %s (%d runs)\n", tc.variant, got, runs)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: sync executions drifted over %d runs\n got  %s\n want %s", tc.variant, runs, got, tc.want)
		}
	}
}
