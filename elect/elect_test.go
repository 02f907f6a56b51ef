package elect

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestLookupAllRegistered(t *testing.T) {
	for _, name := range Names() {
		spec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Name != name {
			t.Fatalf("lookup %q returned %q", name, spec.Name)
		}
		if spec.Model == Sync && spec.buildSync == nil {
			t.Fatalf("%s: sync spec without builder", name)
		}
		if spec.Model == Async && spec.buildAsync == nil {
			t.Fatalf("%s: async spec without builder", name)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
	if len(Registry()) != 12 {
		t.Fatalf("registry has %d entries", len(Registry()))
	}
}

// registryGolden pins the public listing: names in registry order with their
// capability metadata. A new protocol must be added here deliberately.
func TestRegistryGolden(t *testing.T) {
	want := []struct {
		name          string
		model         Model
		deterministic bool
		smallIDSpace  bool
	}{
		{"tradeoff", Sync, true, false},
		{"afekgafni", Sync, true, false},
		{"smallid", Sync, true, true},
		{"lasvegas", Sync, false, false},
		{"sublinear", Sync, false, false},
		{"advwake", Sync, false, false},
		{"spreadelect", Sync, false, false},
		{"kuttenmoses", Sync, true, false},
		{"kpprt", Sync, false, false},
		{"asynctradeoff", Async, false, false},
		{"asyncafekgafni", Async, true, false},
		{"asynclinear", Async, false, false},
	}
	got := Registry()
	if len(got) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(got), len(want))
	}
	for i, w := range want {
		s := got[i]
		if s.Name != w.name || s.Model != w.model ||
			s.Deterministic != w.deterministic || s.SmallIDSpace != w.smallIDSpace {
			t.Errorf("registry[%d] = {%s %s det=%v small=%v}, want {%s %s det=%v small=%v}",
				i, s.Name, s.Model, s.Deterministic, s.SmallIDSpace,
				w.name, w.model, w.deterministic, w.smallIDSpace)
		}
		if s.Paper == "" || s.Description == "" {
			t.Errorf("%s: missing paper/description metadata", s.Name)
		}
	}
}

// TestBoundProperties: every registered spec states a paper bound that is
// finite, positive, at least one round, and whose messages do not decrease
// in n, at n = 2…2^16 under the default Params and at the edges of the
// valid ones.
func TestBoundProperties(t *testing.T) {
	variants := []Params{DefaultParams()}
	for _, f := range []func(*Params){
		func(p *Params) { p.K = 1 }, func(p *Params) { p.K = 2 }, func(p *Params) { p.K = 64 },
		func(p *Params) { p.D = 1 }, func(p *Params) { p.D = 1 << 16 },
		func(p *Params) { p.G = 16 }, func(p *Params) { p.Eps = 1e-9 }, func(p *Params) { p.Eps = 1 - 1e-9 },
	} {
		p := DefaultParams()
		f(&p)
		variants = append(variants, p)
	}
	for _, spec := range Registry() {
		for _, p := range variants {
			if spec.Validate(p) == nil {
				if err := checkBound(spec, p); err != nil {
					t.Errorf("%s %+v: %v", spec.Name, p, err)
				}
			}
		}
	}
	if checkBound(Spec{Name: "unbounded"}, DefaultParams()) == nil {
		t.Error("a spec without a bound passes the property check")
	}
}

func checkBound(spec Spec, p Params) error {
	prev := 0.0
	for n := 2; n <= 1<<16; n++ {
		msgs, rounds := spec.Bound(n, p, 0, 0)
		switch {
		case math.IsInf(msgs, 0) || math.IsNaN(msgs) || msgs <= 0:
			return fmt.Errorf("n=%d: messages bound %v", n, msgs)
		case math.IsInf(rounds, 0) || math.IsNaN(rounds) || rounds < 1:
			return fmt.Errorf("n=%d: rounds bound %v", n, rounds)
		case msgs < prev:
			return fmt.Errorf("n=%d: messages bound %v below %v at n-1", n, msgs, prev)
		}
		prev = msgs
	}
	return nil
}

func TestSpecEngines(t *testing.T) {
	for _, spec := range Registry() {
		engines := spec.Engines()
		if spec.Model == Sync {
			if len(engines) != 1 || engines[0] != EngineSync {
				t.Errorf("%s: engines = %v", spec.Name, engines)
			}
			if spec.Supports(EngineLive) || spec.Supports(EngineAsync) {
				t.Errorf("%s: claims async engine support", spec.Name)
			}
		} else {
			if len(engines) != 2 || !spec.Supports(EngineAsync) || !spec.Supports(EngineLive) {
				t.Errorf("%s: engines = %v", spec.Name, engines)
			}
			if spec.Supports(EngineSync) {
				t.Errorf("%s: claims sync engine support", spec.Name)
			}
		}
		if !spec.Supports(EngineAuto) {
			t.Errorf("%s: rejects EngineAuto", spec.Name)
		}
	}
}

func TestRunEveryAlgorithm(t *testing.T) {
	for _, spec := range Registry() {
		opts := []Option{WithN(64), WithSeed(7)}
		if spec.Name == "advwake" || spec.Name == "spreadelect" || spec.Name == "asynctradeoff" ||
			spec.Name == "asynclinear" {
			opts = append(opts, WithWake(3)) // adversarial wake-up models
		}
		res, err := Run(spec, opts...)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if !res.OK {
			// Randomized algorithms may fail occasionally; retry once with
			// another seed before declaring a problem.
			res, err = Run(spec, append(opts, WithSeed(99))...)
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			if !res.OK {
				t.Fatalf("%s failed twice: %+v", spec.Name, res)
			}
		}
		if res.Messages < 0 || res.Leader < 0 {
			t.Fatalf("%s: bad result %+v", spec.Name, res)
		}
		if res.LeaderID != res.IDs[res.Leader] {
			t.Fatalf("%s: LeaderID %d != IDs[%d] = %d",
				spec.Name, res.LeaderID, res.Leader, res.IDs[res.Leader])
		}
		if got := len(res.Decisions); got != 64 {
			t.Fatalf("%s: %d decisions", spec.Name, got)
		}
		if res.Decisions[res.Leader] != Leader {
			t.Fatalf("%s: leader's decision is %s", spec.Name, res.Decisions[res.Leader])
		}
		if out := res.String(); !strings.Contains(out, spec.Name) {
			t.Fatalf("%s: summary rendering: %s", spec.Name, out)
		}
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	for _, name := range []string{"tradeoff", "lasvegas", "asynctradeoff"} {
		spec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Run(spec, WithN(64), WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(spec, WithN(64), WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() || a.Messages != b.Messages || a.Leader != b.Leader {
			t.Fatalf("%s: same seed diverged: %+v vs %+v", name, a, b)
		}
	}
}

func TestRunParamValidation(t *testing.T) {
	spec, _ := Lookup("tradeoff")
	if _, err := Run(spec, WithN(16), WithParams(Params{K: 1})); err == nil {
		t.Fatal("bad K accepted")
	}
	if err := spec.Validate(Params{K: 1}); err == nil {
		t.Fatal("Validate accepted bad K")
	}
	if err := spec.Validate(DefaultParams()); err != nil {
		t.Fatalf("Validate rejected defaults: %v", err)
	}
	if _, err := Run(spec, WithN(0)); err == nil {
		t.Fatal("n=0 accepted")
	}
	aspec, _ := Lookup("asynctradeoff")
	if _, err := Run(aspec, WithN(16), WithDelays("bogus")); err == nil {
		t.Fatal("bad delay profile accepted")
	}
}

func TestRunOptionCompatibility(t *testing.T) {
	sync, _ := Lookup("tradeoff")
	async, _ := Lookup("asynctradeoff")
	if _, err := Run(sync, WithN(16), WithEngine(EngineAsync)); err == nil {
		t.Fatal("sync spec on async engine accepted")
	}
	if _, err := Run(async, WithN(16), WithEngine(EngineSync)); err == nil {
		t.Fatal("async spec on sync engine accepted")
	}
	if _, err := Run(async, WithN(16), WithTrace()); err == nil {
		t.Fatal("trace on async engine accepted")
	}
	if _, err := Run(async, WithN(16), WithExplicit()); err == nil {
		t.Fatal("explicit on async spec accepted")
	}
	if _, err := Run(sync, WithN(16), WithDelays(DelayUniform)); err == nil {
		t.Fatal("delays on sync engine accepted")
	}
	if _, err := Run(sync, WithN(16), WithWakeSet([]int{99})); err == nil {
		t.Fatal("out-of-range wake set accepted")
	}
	if _, err := Run(sync, WithN(16), WithWakeSet([]int{})); err == nil {
		t.Fatal("empty wake set accepted")
	}
	// A Spec not obtained from the registry has no builders; Run and
	// Validate must error, not panic.
	if _, err := Run(Spec{Name: "homemade", Model: Sync}, WithN(8)); err == nil {
		t.Fatal("builder-less sync spec accepted")
	}
	if _, err := Run(Spec{Name: "homemade", Model: Async}, WithN(8)); err == nil {
		t.Fatal("builder-less async spec accepted")
	}
	if err := (Spec{Name: "homemade", Model: Sync}).Validate(DefaultParams()); err == nil {
		t.Fatal("Validate accepted builder-less spec")
	}
}

func TestParseDelays(t *testing.T) {
	for _, name := range []string{"", "unit", "uniform", "skew"} {
		if _, err := ParseDelays(name); err != nil {
			t.Fatalf("%q: %v", name, err)
		}
	}
	if _, err := ParseDelays("bogus"); err == nil {
		t.Fatal("bad name accepted")
	}
}

func TestParseEngine(t *testing.T) {
	for name, want := range map[string]Engine{
		"": EngineAuto, "auto": EngineAuto, "sync": EngineSync,
		"async": EngineAsync, "live": EngineLive,
	} {
		got, err := ParseEngine(name)
		if err != nil || got != want {
			t.Fatalf("ParseEngine(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseEngine("bogus"); err == nil {
		t.Fatal("bad engine name accepted")
	}
	for _, e := range []Engine{EngineSync, EngineAsync, EngineLive} {
		if got, err := ParseEngine(e.String()); err != nil || got != e {
			t.Fatalf("ParseEngine(%q) = %v, %v — not inverse of String", e, got, err)
		}
	}
}

func TestRunExplicitMode(t *testing.T) {
	spec, _ := Lookup("tradeoff")
	plain, err := Run(spec, WithN(64), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Run(spec, WithN(64), WithSeed(3), WithExplicit())
	if err != nil {
		t.Fatal(err)
	}
	if !explicit.OK {
		t.Fatal("explicit run failed")
	}
	if explicit.Rounds != plain.Rounds+1 || explicit.Messages != plain.Messages+63 {
		t.Fatalf("explicit overhead wrong: %d/%d vs %d/%d",
			explicit.Rounds, explicit.Messages, plain.Rounds, plain.Messages)
	}
}

func TestRunWithIDs(t *testing.T) {
	spec, _ := Lookup("tradeoff")
	ids := make([]int64, 32)
	for i := range ids {
		ids[i] = int64(i + 1)
	}
	res, err := Run(spec, WithN(32), WithIDs(ids))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("run failed: %+v", res)
	}
	// The deterministic tradeoff elects the maximum ID, which we placed at
	// the last node.
	if res.Leader != 31 || res.LeaderID != 32 {
		t.Fatalf("leader = node %d (ID %d), want node 31 (ID 32)", res.Leader, res.LeaderID)
	}
	if _, err := Run(spec, WithN(16), WithIDs(ids)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Run(spec, WithN(2), WithIDs([]int64{1, 1})); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
}

func TestRunMessageBudgetTruncates(t *testing.T) {
	spec, _ := Lookup("afekgafni")
	full, err := Run(spec, WithN(128), WithSeed(1), WithParams(Params{K: 1}))
	if err != nil {
		t.Fatal(err)
	}
	cut, err := Run(spec, WithN(128), WithSeed(1), WithParams(Params{K: 1}),
		WithMessageBudget(full.Messages/4))
	if err != nil {
		t.Fatal(err)
	}
	if !cut.Truncated {
		t.Fatalf("budget %d did not truncate a %d-message run", full.Messages/4, full.Messages)
	}
	if cut.OK {
		t.Fatal("truncated run reported OK")
	}

	aspec, _ := Lookup("asynctradeoff")
	afull, err := Run(aspec, WithN(64), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	acut, err := Run(aspec, WithN(64), WithSeed(1), WithMessageBudget(afull.Messages/4))
	if err != nil {
		t.Fatal(err)
	}
	if !acut.Truncated || acut.OK {
		t.Fatalf("async budget did not truncate: %+v", acut)
	}
	if acut.Messages > afull.Messages/4 {
		t.Fatalf("async run sent %d messages over budget %d", acut.Messages, afull.Messages/4)
	}
}

func TestRunWithTrace(t *testing.T) {
	spec, _ := Lookup("tradeoff")
	res, err := Run(spec, WithN(64), WithSeed(2), WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("no trace summary attached")
	}
	if res.Trace.Edges <= 0 || res.Trace.PortOpens <= 0 {
		t.Fatalf("empty trace: %+v", res.Trace)
	}
	// A successful election must weakly connect a majority (Corollary 3.7's
	// contrapositive); the deterministic tradeoff connects everyone who
	// competed with the eventual leader's announcements.
	if res.Trace.MaxComponent < 33 {
		t.Fatalf("max component %d < majority", res.Trace.MaxComponent)
	}
	plain, err := Run(spec, WithN(64), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Fatal("trace attached without WithTrace")
	}
	if plain.Messages != res.Messages || plain.Leader != res.Leader {
		t.Fatalf("tracing changed the run: %+v vs %+v", plain, res)
	}
}
