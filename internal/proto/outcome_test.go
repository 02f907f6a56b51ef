package proto

import "testing"

func TestCheckElection(t *testing.T) {
	const (
		U = Undecided
		L = Leader
		N = NonLeader
	)
	// asleep marks the nodes that never woke; every other node did.
	cases := []struct {
		name   string
		out    Outcome
		asleep []int
		ok     bool
		leader int
	}{
		{name: "one surviving leader", out: Outcome{Decisions: []Decision{N, L, N}}, ok: true, leader: 1},
		{name: "two surviving leaders", out: Outcome{Decisions: []Decision{L, L, N}}, leader: -1},
		{name: "no leader", out: Outcome{Decisions: []Decision{N, N, N}}, leader: -1},
		{name: "only leader crashed", out: Outcome{Decisions: []Decision{N, L, N}, Crashed: []int{1}}, leader: -1},
		{name: "second leader crashed", out: Outcome{Decisions: []Decision{L, N, L}, Crashed: []int{2}}, ok: true, leader: 0},
		{name: "awake survivor undecided", out: Outcome{Decisions: []Decision{L, U, N}}, leader: 0},
		{name: "never-woken node undecided", out: Outcome{Decisions: []Decision{L, U, N}}, asleep: []int{1}, ok: true, leader: 0},
		{name: "crashed node undecided", out: Outcome{Decisions: []Decision{L, U, N}, Crashed: []int{1}}, ok: true, leader: 0},
		{name: "truncated run", out: Outcome{Decisions: []Decision{N, L, N}, Truncated: true}, leader: 1},
		{name: "timed-out run", out: Outcome{Decisions: []Decision{N, L, N}, TimedOut: true}, leader: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			woke := func(u int) bool {
				for _, s := range c.asleep {
					if s == u {
						return false
					}
				}
				return true
			}
			err := c.out.CheckElection(woke)
			if (err == nil) != c.ok {
				t.Fatalf("CheckElection = %v, want ok=%v", err, c.ok)
			}
			if got := c.out.UniqueLeader(); got != c.leader {
				t.Fatalf("UniqueLeader = %d, want %d", got, c.leader)
			}
			if got, want := c.out.AllWoke(woke), len(c.asleep) == 0; got != want {
				t.Fatalf("AllWoke = %v, want %v", got, want)
			}
		})
	}
}

func TestOutcomeLeadersIncludeCrashed(t *testing.T) {
	o := Outcome{Decisions: []Decision{Leader, NonLeader, Leader}, Crashed: []int{2}}
	if got := o.Leaders(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Leaders = %v, want [0 2]", got)
	}
	if !o.CrashedNode(2) || o.CrashedNode(0) {
		t.Fatal("CrashedNode disagrees with Crashed")
	}
}

func TestDecisionText(t *testing.T) {
	for _, d := range []Decision{Undecided, Leader, NonLeader} {
		text, err := d.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Decision
		if err := back.UnmarshalText(text); err != nil || back != d {
			t.Fatalf("%v round-tripped to %v (%v)", d, back, err)
		}
	}
	if _, err := Decision(3).MarshalText(); err == nil {
		t.Fatal("invalid decision encoded")
	}
	var d Decision
	if err := d.UnmarshalText([]byte("boss")); err == nil {
		t.Fatal("unknown decision name decoded")
	}
}
