package lowerbound

import (
	"fmt"
	"math"

	"cliquelect/internal/ids"
	"cliquelect/internal/proto"
	"cliquelect/internal/simsync"
	"cliquelect/internal/xrand"
)

// WakeupPoint is one fan-out setting of the WakeupGame sweep.
type WakeupPoint struct {
	// Beta scales the root fan-out: roots send Beta·sqrt(n) wake-ups.
	Beta float64
	// Fanout is the concrete per-root message count used.
	Fanout int
	// MeanMessages is the observed expected message complexity.
	MeanMessages float64
	// WakeFailRate is the fraction of trials in which some node was never
	// woken within 2 rounds.
	WakeFailRate float64
}

// WakeupGameResult is the Theorem 4.2 message/success sweep.
type WakeupGameResult struct {
	N      int
	Trials int
	Points []WakeupPoint
	// Envelope is n^{3/2}, the Theorem 4.2 message floor for reliable
	// 2-round wake-up.
	Envelope float64
}

// WakeupGame measures the tradeoff behind Theorem 4.2: any 2-round
// algorithm that wakes all nodes with constant probability needs
// Omega(n^{3/2}) expected messages. It sweeps the root fan-out beta·sqrt(n)
// of the generic 2-round spread protocol (roots spread in round 1, every
// receiver relays beta·sqrt(n) more wake-ups in round 2) and records, per
// beta, expected messages and the wake-up failure rate: failures vanish
// just as the message count crosses the n^{3/2} envelope, from below.
//
// The adversary plays its strongest card from the proof: it wakes exactly
// one root (so the protocol cannot rely on many simultaneous spreaders).
func WakeupGame(n, trials int, betas []float64, seed uint64) (*WakeupGameResult, error) {
	if n < 4 {
		return nil, fmt.Errorf("lowerbound: n = %d too small", n)
	}
	if trials < 1 {
		return nil, fmt.Errorf("lowerbound: trials = %d", trials)
	}
	rng := xrand.New(seed)
	out := &WakeupGameResult{N: n, Trials: trials, Envelope: math.Pow(float64(n), 1.5)}
	for _, beta := range betas {
		fan := int(math.Round(beta * math.Sqrt(float64(n))))
		if fan < 1 {
			fan = 1
		}
		if fan > n-1 {
			fan = n - 1
		}
		var msgs int64
		fails := 0
		for i := 0; i < trials; i++ {
			assign := ids.Sequential(ids.LinearUniverse(n, 1), n)
			res, err := simsync.Run(simsync.Config{
				N: n, IDs: assign, Seed: rng.Uint64(),
				Wake:      []int{int(rng.Uint64n(uint64(n)))},
				MaxRounds: 8,
			}, func(int) simsync.Protocol { return &spread2{fan: fan} })
			if err != nil {
				return nil, err
			}
			msgs += res.Messages
			if !res.AllAwake() {
				fails++
			}
		}
		out.Points = append(out.Points, WakeupPoint{
			Beta:         beta,
			Fanout:       fan,
			MeanMessages: float64(msgs) / float64(trials),
			WakeFailRate: float64(fails) / float64(trials),
		})
	}
	return out, nil
}

// spread2 is the generic 2-round wake-up protocol of the Theorem 4.2
// discussion: roots spread `fan` wake-ups in round 1; nodes woken in round
// 1 relay `fan` wake-ups each in round 2; everyone halts after round 2.
type spread2 struct {
	fan     int
	env     proto.Env
	started bool
	root    bool
	relay   bool
	halted  bool
	dec     proto.Decision
}

func (s *spread2) Init(env proto.Env) { s.env = env }

func (s *spread2) Send(round int) []proto.Send {
	if !s.started {
		s.started = true
		s.root = true
	}
	var doSend bool
	switch round {
	case 1:
		doSend = s.root
	case 2:
		doSend = s.relay
	}
	if !doSend {
		return nil
	}
	fan := s.fan
	if fan > s.env.Ports() {
		fan = s.env.Ports()
	}
	return s.env.Out.ToSample(s.env.RNG, s.env.Ports(), fan, proto.Message{Kind: 1})
}

func (s *spread2) Deliver(round int, inbox []proto.Delivery) {
	if !s.started {
		s.started = true
		if round == 1 {
			s.relay = true // woken in round 1: relays in round 2
		}
	}
	if round >= 2 {
		s.dec = proto.NonLeader
		s.halted = true
	}
}

func (s *spread2) Decision() proto.Decision { return s.dec }
func (s *spread2) Halted() bool             { return s.halted }

var _ simsync.Protocol = (*spread2)(nil)
