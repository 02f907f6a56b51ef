package elect

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// faultCases pairs one spec per simulator with a non-trivial plan, for the
// determinism guards below.
var faultCases = []struct {
	algo string
	plan FaultPlan
}{
	{"tradeoff", FaultPlan{CrashRate: 0.2, DropRate: 0.05, DupRate: 0.02}},
	{"asynctradeoff", FaultPlan{CrashRate: 0.2, DropRate: 0.01, DupRate: 0.02}},
}

// TestFaultDeterminism: same seed + same plan must reproduce byte-identical
// Results on both simulators.
func TestFaultDeterminism(t *testing.T) {
	for _, tc := range faultCases {
		spec, err := Lookup(tc.algo)
		if err != nil {
			t.Fatal(err)
		}
		opts := []Option{WithN(64), WithSeed(11), WithFaults(tc.plan)}
		first, err := Run(spec, opts...)
		if err != nil {
			t.Fatal(err)
		}
		second, err := Run(spec, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%s: same seed + plan diverged:\nfirst  %+v\nsecond %+v",
				tc.algo, first, second)
		}
	}
}

// TestZeroFaultPlanIsPlainRun: a zero FaultPlan must leave the run
// byte-identical to one without WithFaults, on both simulators — the
// regression guard for the hook wiring.
func TestZeroFaultPlanIsPlainRun(t *testing.T) {
	for _, algo := range []string{"tradeoff", "asynctradeoff"} {
		spec, err := Lookup(algo)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Run(spec, WithN(64), WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		faulted, err := Run(spec, WithN(64), WithSeed(11), WithFaults(FaultPlan{}))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, faulted) {
			t.Errorf("%s: zero plan diverged from plain run:\nplain   %+v\nfaulted %+v",
				algo, plain, faulted)
		}
	}
}

func TestFaultsRejectedOnLiveEngine(t *testing.T) {
	spec, err := Lookup("asynctradeoff")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(spec, WithN(16), WithEngine(EngineLive),
		WithFaults(FaultPlan{DropRate: 0.1}))
	if err == nil || !strings.Contains(err.Error(), "WithFaults") {
		t.Fatalf("live engine accepted faults (err = %v)", err)
	}
	// The same guard must hold when the run arrives through RunMany's grid.
	_, err = RunMany(spec, Batch{
		Ns: []int{16}, Seeds: Seeds(1, 2),
		Options: []Option{WithEngine(EngineLive), WithFaults(FaultPlan{DropRate: 0.1})},
	})
	if err == nil || !strings.Contains(err.Error(), "WithFaults") {
		t.Fatalf("RunMany on the live engine accepted faults (err = %v)", err)
	}
}

func TestFaultsBadPlanRejected(t *testing.T) {
	spec, err := Lookup("tradeoff")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, WithN(16), WithFaults(FaultPlan{DropRate: 2})); err == nil {
		t.Fatal("DropRate=2 accepted")
	}
	if _, err := Run(spec, WithN(16),
		WithFaults(FaultPlan{Crashes: []Crash{{Node: 99, At: 1}}})); err == nil {
		t.Fatal("out-of-range crash victim accepted")
	}
	// A non-finite horizon or instant must fail loudly: it would otherwise
	// switch the faults off and leave the run without a fingerprint.
	nan, inf := math.NaN(), math.Inf(1)
	for _, p := range []FaultPlan{
		{CrashRate: 1, CrashWindow: nan},
		{CrashRate: 1, CrashWindow: inf},
		{CrashRate: 1, CrashWindow: -inf},
		{CrashWindow: nan},
		{Crashes: []Crash{{Node: 3, At: inf}}},
	} {
		if _, err := Run(spec, WithN(16), WithFaults(p)); err == nil {
			t.Errorf("plan %+v accepted", p)
		}
	}
}

// TestCrashedLeaderSemantics: crashing the fault-free winner voids its
// output; the survivors either elect someone else (OK with a new leader) or
// fail. Crashing everybody must never be OK.
func TestCrashedLeaderSemantics(t *testing.T) {
	spec, err := Lookup("tradeoff")
	if err != nil {
		t.Fatal(err)
	}
	base := []Option{WithN(32), WithSeed(3)}
	plain, err := Run(spec, base...)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.OK {
		t.Fatalf("baseline run failed: %+v", plain)
	}
	regicide, err := Run(spec, append(base,
		WithFaults(FaultPlan{Crashes: []Crash{{Node: plain.Leader, At: 1}}}))...)
	if err != nil {
		t.Fatal(err)
	}
	if len(regicide.Crashed) != 1 || regicide.Crashed[0] != plain.Leader {
		t.Fatalf("Crashed = %v, want [%d]", regicide.Crashed, plain.Leader)
	}
	if regicide.OK && regicide.Leader == plain.Leader {
		t.Fatal("crashed node still counted as the elected leader")
	}
	massacre, err := Run(spec, append(base,
		WithFaults(FaultPlan{CrashRate: 1, CrashWindow: 0.5}))...)
	if err != nil {
		t.Fatal(err)
	}
	if massacre.OK {
		t.Fatal("run with every node crashed reported OK")
	}
	if len(massacre.Crashed) != 32 {
		t.Fatalf("Crashed lists %d nodes, want 32", len(massacre.Crashed))
	}
}

// TestRunManyFaultAggregates: the batch layer must surface success rates and
// mean fault counters.
func TestRunManyFaultAggregates(t *testing.T) {
	spec, err := Lookup("tradeoff")
	if err != nil {
		t.Fatal(err)
	}
	batch, err := RunMany(spec, Batch{
		Ns:    []int{32},
		Seeds: Seeds(1, 8),
		Options: []Option{
			WithFaults(FaultPlan{DropRate: 0.05}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	agg := batch.Aggregates[0]
	if agg.SuccessRate < 0 || agg.SuccessRate > 1 {
		t.Fatalf("SuccessRate = %v", agg.SuccessRate)
	}
	if got := float64(agg.Successes) / float64(agg.Runs); agg.SuccessRate != got {
		t.Fatalf("SuccessRate = %v, want %v", agg.SuccessRate, got)
	}
	if agg.MeanDropped <= 0 {
		t.Fatalf("MeanDropped = %v, want > 0 at DropRate 0.05", agg.MeanDropped)
	}
}

// TestAdaptiveAdversaryFreshPerRun: one plan driving a concurrent batch must
// give every run its own adversary instance — identical per-seed results
// whether the batch ran wide or serial.
func TestAdaptiveAdversaryFreshPerRun(t *testing.T) {
	spec, err := Lookup("tradeoff")
	if err != nil {
		t.Fatal(err)
	}
	b := Batch{
		Ns:    []int{32},
		Seeds: Seeds(1, 6),
		Options: []Option{
			WithFaults(FaultPlan{NewAdversary: CrashLowestSender(2)}),
		},
	}
	wide, err := RunMany(spec, b)
	if err != nil {
		t.Fatal(err)
	}
	b.Workers = 1
	serial, err := RunMany(spec, b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wide.Runs, serial.Runs) {
		t.Fatal("adaptive-adversary batch is worker-count dependent")
	}
	crashed := false
	for _, r := range wide.Runs {
		crashed = crashed || len(r.Crashed) > 0
	}
	if !crashed {
		t.Fatal("adaptive adversary crashed nobody across the batch")
	}
}

func TestParseFaults(t *testing.T) {
	p, err := ParseFaults("drop=0.1, crash=0.05, dup=0.01, dropfirst=4, window=6")
	if err != nil {
		t.Fatal(err)
	}
	want := FaultPlan{DropRate: 0.1, CrashRate: 0.05, DupRate: 0.01, DropFirst: 4, CrashWindow: 6}
	if p.DropRate != want.DropRate || p.CrashRate != want.CrashRate ||
		p.DupRate != want.DupRate || p.DropFirst != want.DropFirst ||
		p.CrashWindow != want.CrashWindow || p.NewAdversary != nil {
		t.Fatalf("ParseFaults = %+v, want %+v", p, want)
	}
	if p, err := ParseFaults(""); err != nil || !p.IsZero() {
		t.Fatalf("empty spec: %+v, %v", p, err)
	}
	adaptive, err := ParseFaults("adaptive=2")
	if err != nil || adaptive.NewAdversary == nil {
		t.Fatalf("adaptive spec: %+v, %v", adaptive, err)
	}
	for _, bad := range []string{"drop", "bogus=1", "drop=x", "dropfirst=1.5", "adaptive=0", "adaptive=-3"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Errorf("ParseFaults(%q) accepted", bad)
		}
	}
	if _, err := ParseFaults("bogus=1"); err == nil ||
		!strings.Contains(err.Error(), "crash") || !strings.Contains(err.Error(), "adaptive") {
		t.Fatalf("unknown-knob error does not list valid names: %v", err)
	}
}

// TestFaultToleranceFlags: the registry must qualify the specs the ISSUE's
// resilience sweep depends on and exclude lasvegas, whose faulted runs wedge
// at the round cap.
func TestFaultToleranceFlags(t *testing.T) {
	for _, name := range []string{"tradeoff", "asynctradeoff", "afekgafni", "sublinear"} {
		spec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if !spec.FaultTolerant {
			t.Errorf("%s not marked FaultTolerant", name)
		}
	}
	lv, err := Lookup("lasvegas")
	if err != nil {
		t.Fatal(err)
	}
	if lv.FaultTolerant {
		t.Error("lasvegas marked FaultTolerant despite wedging under faults")
	}
}

// FuzzParseFaults is the fault-plan parser's trust boundary (client.Options
// carries the plan syntax over HTTP): ParseFaults never panics, and every
// plan it accepts either fails Run or has a fingerprint, so no accepted
// plan runs uncacheably without saying so.
func FuzzParseFaults(f *testing.F) {
	spec, err := Lookup("tradeoff")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseFaults(s)
		if err != nil || p.NewAdversary != nil {
			return
		}
		opts := []Option{WithN(8), WithSeed(1), WithFaults(p)}
		if _, err := Run(spec, opts...); err != nil {
			return
		}
		if _, err := Fingerprint(spec, opts...); err != nil {
			t.Fatalf("ParseFaults(%q) = %+v runs but has no fingerprint: %v", s, p, err)
		}
	})
}
