// Package proto defines the types shared by every protocol and network
// engine in this repository: messages, sends, deliveries, node environments
// and decisions.
//
// The model is the KT0 "clean network" of the paper (Section 2): a node
// initially knows only its own ID and n. It owns n-1 ports and addresses all
// communication by port number; it never addresses nodes by ID. A received
// message is annotated with the arrival port, so "reply to whoever contacted
// me" is expressible, but "send to node with ID x" is not.
//
// Messages carry a fixed-size payload (a kind tag plus two 64-bit words), so
// every protocol built on this package is CONGEST-compliant by construction:
// each message fits in O(log n) bits for any polynomial ID space.
package proto

import (
	"fmt"

	"cliquelect/internal/xrand"
)

// Decision is a node's irrevocable leader-election output. The zero value
// Undecided is meaningful: a node that has not yet decided.
type Decision uint8

const (
	// Undecided means the node has not yet produced an output bit.
	Undecided Decision = iota
	// Leader means the node output 1 (it is the unique leader).
	Leader
	// NonLeader means the node output 0.
	NonLeader
)

func (d Decision) String() string {
	switch d {
	case Undecided:
		return "undecided"
	case Leader:
		return "leader"
	case NonLeader:
		return "non-leader"
	}
	return fmt.Sprintf("Decision(%d)", uint8(d))
}

// MarshalText encodes the decision as its name ("undecided", "leader",
// "non-leader"): the spelling of the elect package's v1 wire form.
func (d Decision) MarshalText() ([]byte, error) {
	if d > NonLeader {
		return nil, fmt.Errorf("proto: cannot encode invalid decision %d", int(d))
	}
	return []byte(d.String()), nil
}

// UnmarshalText decodes a decision name written by MarshalText.
func (d *Decision) UnmarshalText(text []byte) error {
	switch string(text) {
	case "undecided":
		*d = Undecided
	case "leader":
		*d = Leader
	case "non-leader":
		*d = NonLeader
	default:
		return fmt.Errorf("proto: unknown decision %q (undecided, leader, non-leader)", text)
	}
	return nil
}

// Message is a fixed-size CONGEST message: a protocol-defined kind tag and
// two integer words (typically an ID or rank, and an auxiliary value such as
// a level or iteration number).
type Message struct {
	Kind uint8
	A    int64
	B    int64
}

// Words returns the payload size in O(log n)-bit words, used by the engines'
// CONGEST accounting.
func (m Message) Words() int { return 3 }

// Send instructs the engine to transmit Msg over the sender's port Port
// (0-based, in [0, n-2]).
type Send struct {
	Port int
	Msg  Message
}

// Delivery is a received message annotated with the arrival port on the
// receiving node.
type Delivery struct {
	Port int
	Msg  Message
}

// Env is everything a node knows when it wakes up, per the KT0 model: its
// own ID, the network size n, and a private random-bit stream. On the
// default clique wiring a node has n-1 ports numbered 0..n-2; when the
// sync engine runs over an explicit topology (simsync.Config.Topo, the only
// engine with one), Deg and Diam describe the node's local wiring and the
// graph's diameter estimate (both 0 on the clique, where the values are
// implied by N). Out is where the node builds the sends each callback
// returns.
type Env struct {
	ID  int64
	N   int
	RNG *xrand.RNG
	// Out is the engine-owned send buffer (see SendBuf). It may be shared
	// with the run's other nodes: a protocol builds each callback's sends
	// there and returns them, and keeps neither the slice nor its contents
	// past the callback.
	Out *SendBuf
	// Deg is the node's port count on a simsync topology; 0 means the
	// clique wiring, where every node has n-1 ports.
	Deg int
	// Diam is simsync's diameter estimate for the topology the node is
	// wired into; 0 means the clique (diameter 1 for n > 1). Protocols use
	// it as a safe hop-count horizon.
	Diam int
}

// Ports returns the number of ports of the node: Deg on an explicit
// topology, n-1 on the clique.
func (e Env) Ports() int {
	if e.Deg > 0 {
		return e.Deg
	}
	return e.N - 1
}
