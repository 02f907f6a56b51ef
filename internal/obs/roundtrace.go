package obs

// RoundStat is one round's telemetry on the synchronous engine, or one
// unit-time window's on the asynchronous engine (window w covers event
// times [w, w+1) measured from the first wake-up). All quantities are
// derived from the execution itself, never from ambient state, so a traced
// run's timeline is as deterministic as its Result. The json tags are part
// of the elect package's v1 wire form (elect.RoundStat is this type).
type RoundStat struct {
	// Round is the round number (sync; rounds start at 1) or window index
	// (async; windows start at 0).
	Round int `json:"round"`
	// Messages and Words count protocol sends attributed to this round, as
	// in Result.Messages/Words (dropped messages count, duplicates do not).
	Messages int64 `json:"messages"`
	Words    int64 `json:"words"`
	// Deliveries counts message copies actually delivered (duplicates
	// included, drops excluded).
	Deliveries int64 `json:"deliveries"`
	// Active is the number of distinct nodes that sent at least one message
	// this round.
	Active int `json:"active"`
	// Woke is the number of nodes that woke this round; Decided is the
	// number whose decision became final this round.
	Woke    int `json:"woke"`
	Decided int `json:"decided"`
	// Kinds counts this round's sends by payload kind (keyed by the kind
	// byte rendered in decimal on the wire).
	Kinds map[uint8]int64 `json:"kinds,omitempty"`
}

// RoundTrace collects a per-round timeline. The engines call its methods
// only through a nil-guarded Config pointer, so a disabled probe costs one
// predictable branch per event and zero allocations — the PR 4 hot-path
// budget (TestRoundLoopAllocBudget) holds with the probe compiled in.
//
// Not safe for concurrent use; each engine run owns its collector.
type RoundTrace struct {
	base  int
	stats []RoundStat
	stamp []int // per-node: round+1 of the last round counted in Active
}

// NewRoundTrace builds a collector for n nodes whose first round is
// firstRound (1 on the sync engine, 0 on the async engine's windows).
func NewRoundTrace(n, firstRound int) *RoundTrace {
	return &RoundTrace{base: firstRound, stamp: make([]int, n)}
}

// at returns the stat for a round, extending the timeline (and zero-filling
// any gap — async windows may skip) as needed.
func (t *RoundTrace) at(round int) *RoundStat {
	i := round - t.base
	if i < 0 {
		i = 0
	}
	for len(t.stats) <= i {
		t.stats = append(t.stats, RoundStat{Round: t.base + len(t.stats)})
	}
	return &t.stats[i]
}

// Send records one protocol send in the given round.
func (t *RoundTrace) Send(round, node int, kind uint8, words int) {
	s := t.at(round)
	s.Messages++
	s.Words += int64(words)
	if s.Kinds == nil {
		s.Kinds = make(map[uint8]int64, 4)
	}
	s.Kinds[kind]++
	if t.stamp[node] != round+1 {
		t.stamp[node] = round + 1
		s.Active++
	}
}

// Deliver records copies delivered message copies in the given round.
func (t *RoundTrace) Deliver(round, copies int) {
	t.at(round).Deliveries += int64(copies)
}

// Woke records one node waking in the given round.
func (t *RoundTrace) Woke(round int) { t.at(round).Woke++ }

// Decided records one node's decision becoming final in the given round.
func (t *RoundTrace) Decided(round int) { t.at(round).Decided++ }

// Stats returns the collected timeline in round order, or nil for a nil
// collector. The slice is owned by the collector; callers that outlive it
// must copy.
func (t *RoundTrace) Stats() []RoundStat {
	if t == nil {
		return nil
	}
	return t.stats
}
