package proto

import (
	"errors"
	"fmt"
)

// Outcome is the part of a run's result that every engine reports: the
// message accounting, each node's decision, why the run stopped early (if it
// did), and the fault injector's counters. The engines embed it in their own
// Result next to their time and wake records, and it holds the one
// definition of a successful implicit leader election (paper Section 2).
type Outcome struct {
	// Messages is the total number of messages sent (the paper's message
	// complexity).
	Messages int64
	// Words is the total CONGEST payload volume in O(log n)-bit words.
	Words int64
	// Decisions holds each node's final output.
	Decisions []Decision
	// TimedOut reports that the engine's runaway cap (rounds or events)
	// elapsed before quiescence.
	TimedOut bool
	// Truncated reports that the message budget was exhausted before
	// quiescence.
	Truncated bool
	// Crashed lists (sorted) the nodes that crash-stopped during the run
	// (fault injection only).
	Crashed []int
	// Dropped counts messages the fault injector lost; Duplicated counts the
	// extra copies it delivered. Both are included in/excluded from Messages
	// respectively: a dropped message was still sent, a duplicate was not.
	Dropped    int64
	Duplicated int64
}

// Leaders returns the indices of nodes that decided Leader, including nodes
// that crashed after deciding.
func (o *Outcome) Leaders() []int {
	var out []int
	for u, d := range o.Decisions {
		if d == Leader {
			out = append(out, u)
		}
	}
	return out
}

// CrashedNode reports whether node u crash-stopped during the run.
func (o *Outcome) CrashedNode(u int) bool {
	for _, c := range o.Crashed {
		if c == u {
			return true
		}
	}
	return false
}

// UniqueLeader returns the elected node index if exactly one surviving node
// decided Leader (a crashed node's output is void, per the usual crash-stop
// semantics), and -1 otherwise.
func (o *Outcome) UniqueLeader() int {
	leader := -1
	for u, d := range o.Decisions {
		if d != Leader || o.CrashedNode(u) {
			continue
		}
		if leader >= 0 {
			return -1
		}
		leader = u
	}
	return leader
}

// AllWoke reports whether woke holds for every node.
func (o *Outcome) AllWoke(woke func(u int) bool) bool {
	for u := range o.Decisions {
		if !woke(u) {
			return false
		}
	}
	return true
}

// CheckElection checks implicit leader election restricted to surviving
// nodes: the run reached quiescence within its budgets, exactly one
// surviving node decided Leader, and every surviving node for which woke
// holds decided (crashed nodes owe nothing, as usual under crash-stop
// faults, and a node that never woke owes nothing either). It returns nil
// on success.
func (o *Outcome) CheckElection(woke func(u int) bool) error {
	if o.TimedOut {
		return errors.New("proto: run timed out before quiescence")
	}
	if o.Truncated {
		return fmt.Errorf("proto: run truncated at %d messages", o.Messages)
	}
	leaders := 0
	for u, d := range o.Decisions {
		if d == Leader && !o.CrashedNode(u) {
			leaders++
		}
	}
	if leaders != 1 {
		return fmt.Errorf("proto: %d surviving leaders elected, want 1", leaders)
	}
	for u, d := range o.Decisions {
		if d == Undecided && woke(u) && !o.CrashedNode(u) {
			return fmt.Errorf("proto: awake node %d did not decide", u)
		}
	}
	return nil
}
