package faults

import (
	"reflect"
	"testing"

	"cliquelect/internal/proto"
)

func mustInjector(t *testing.T, plan Plan, n int, seed uint64) *Injector {
	t.Helper()
	in, err := NewInjector(plan, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{CrashRate: -0.1},
		{CrashRate: 1.5},
		{DropRate: 2},
		{DupRate: -1},
		{DropFirst: -1},
		{Crashes: []Crash{{Node: 8, At: 1}}},
		{Crashes: []Crash{{Node: -1, At: 1}}},
		{Crashes: []Crash{{Node: 0, At: -2}}},
	}
	for i, p := range bad {
		if err := p.Validate(8); err == nil {
			t.Errorf("plan %d (%+v) accepted", i, p)
		}
		if _, err := NewInjector(p, 8, 1); err == nil {
			t.Errorf("injector for plan %d (%+v) accepted", i, p)
		}
	}
	if err := (Plan{CrashRate: 0.5, DropRate: 1, DupRate: 0.25,
		Crashes: []Crash{{Node: 7, At: 3}}}).Validate(8); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

func TestPlanIsZero(t *testing.T) {
	if !(Plan{}).IsZero() {
		t.Fatal("zero plan not zero")
	}
	nonzero := []Plan{
		{CrashRate: 0.1},
		{Crashes: []Crash{{Node: 0}}},
		{DropRate: 0.1},
		{DropFirst: 1},
		{DupRate: 0.1},
		{NewAdversary: func() Adversary { return NewCrashLowestSender(1) }},
	}
	for i, p := range nonzero {
		if p.IsZero() {
			t.Errorf("plan %d reported zero", i)
		}
	}
}

// TestNilInjector: every hook must be a safe no-op on a nil injector, so the
// engines can call them unconditionally.
func TestNilInjector(t *testing.T) {
	var in *Injector
	in.Tick(1)
	if in.CrashedAt(0, 99) {
		t.Fatal("nil injector crashed a node")
	}
	if v := in.OnSend(0, 1, proto.Message{}, 1); v != Deliver {
		t.Fatalf("nil injector verdict %v", v)
	}
	if o := record(in); o.Crashed != nil || o.Dropped != 0 || o.Duplicated != 0 {
		t.Fatal("nil injector has non-zero counters")
	}
}

// TestDeterminism: identical (plan, n, seed) must reproduce the identical
// verdict sequence and crash schedule.
func TestDeterminism(t *testing.T) {
	plan := Plan{CrashRate: 0.3, DropRate: 0.2, DupRate: 0.1, DropFirst: 2}
	run := func() ([]Verdict, []int) {
		in := mustInjector(t, plan, 32, 77)
		var vs []Verdict
		for i := 0; i < 200; i++ {
			vs = append(vs, in.OnSend(i%32, (i+1)%32, proto.Message{A: int64(i)}, float64(i)/10))
		}
		for u := 0; u < 32; u++ {
			in.CrashedAt(u, DefaultCrashWindow)
		}
		return vs, record(in).Crashed
	}
	v1, c1 := run()
	v2, c2 := run()
	if !reflect.DeepEqual(v1, v2) || !reflect.DeepEqual(c1, c2) {
		t.Fatal("same seed produced different fault schedules")
	}
	if len(c1) == 0 {
		t.Fatal("CrashRate=0.3 over 32 nodes crashed nobody (check sampling)")
	}
}

func TestDropFirstExact(t *testing.T) {
	in := mustInjector(t, Plan{DropFirst: 3}, 4, 1)
	for i := 0; i < 10; i++ {
		v := in.OnSend(0, 1, proto.Message{}, 0)
		want := Drop
		if i >= 3 {
			want = Deliver
		}
		if v != want {
			t.Fatalf("message %d: verdict %v, want %v", i, v, want)
		}
	}
	if got := record(in).Dropped; got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
}

// TestCrashWindow: every CrashRate=1 victim must have crashed by the window
// end, and none before instant 0.
func TestCrashWindow(t *testing.T) {
	const n = 24
	in := mustInjector(t, Plan{CrashRate: 1, CrashWindow: 4}, n, 5)
	for u := 0; u < n; u++ {
		if !in.CrashedAt(u, 4) {
			t.Fatalf("node %d alive after the crash window", u)
		}
	}
	if got := len(record(in).Crashed); got != n {
		t.Fatalf("Crashed lists %d nodes, want %d", got, n)
	}
}

// TestExplicitCrashWins: an explicit crash earlier than the sampled instant
// takes precedence.
func TestExplicitCrashWins(t *testing.T) {
	in := mustInjector(t, Plan{Crashes: []Crash{{Node: 2, At: 3}}}, 8, 5)
	if in.CrashedAt(2, 2.9) {
		t.Fatal("node 2 crashed before its scheduled instant")
	}
	if !in.CrashedAt(2, 3) {
		t.Fatal("node 2 alive at its scheduled instant")
	}
	if in.CrashedAt(3, 1e9) {
		t.Fatal("unscheduled node crashed")
	}
}

func TestCrashLowestSender(t *testing.T) {
	adv := NewCrashLowestSender(2)
	adv.Observe(4, 0, 1, 40, 0, 0)
	adv.Observe(7, 0, 1, 7, 0, 0)
	adv.Observe(9, 0, 1, 90, 0, 0)
	if got := adv.Tick(1); len(got) != 1 || got[0] != 7 {
		t.Fatalf("first victim %v, want [7]", got)
	}
	if got := adv.Tick(2); len(got) != 1 || got[0] != 4 {
		t.Fatalf("second victim %v, want [4]", got)
	}
	if got := adv.Tick(3); got != nil {
		t.Fatalf("budget exhausted but Tick returned %v", got)
	}
	if got := (&CrashLowestSender{}).Tick(1); got != nil {
		t.Fatalf("zero-value adversary returned %v", got)
	}
}

// TestAdversaryDrivesInjector: a Tick victim is crashed from that instant on.
func TestAdversaryDrivesInjector(t *testing.T) {
	plan := Plan{NewAdversary: func() Adversary { return NewCrashLowestSender(1) }}
	in := mustInjector(t, plan, 8, 1)
	in.OnSend(5, 1, proto.Message{A: 10}, 1)
	in.OnSend(3, 1, proto.Message{A: 99}, 1)
	in.Tick(2)
	if !in.CrashedAt(5, 2) {
		t.Fatal("lowest sender not crashed after Tick")
	}
	if in.CrashedAt(3, 2) {
		t.Fatal("wrong node crashed")
	}
	if got := record(in).Crashed; !reflect.DeepEqual(got, []int{5}) {
		t.Fatalf("Crashed = %v, want [5]", got)
	}
}

func TestVerdictString(t *testing.T) {
	for v, want := range map[Verdict]string{Deliver: "deliver", Drop: "drop", Duplicate: "duplicate"} {
		if v.String() != want {
			t.Fatalf("Verdict(%d).String() = %q", v, v.String())
		}
	}
}

// record returns the injector's fault record as the engines see it.
func record(in *Injector) proto.Outcome {
	var o proto.Outcome
	in.Record(&o)
	return o
}
