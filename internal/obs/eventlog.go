package obs

// EventLog: a bounded in-memory journal of typed fleet events — the third
// pillar of the observability layer next to the metrics registry and the
// span collector. Where metrics answer "how much" and
// traces answer "how long", the journal answers "what happened when": a
// campaign won, a lease granted, a fence rejected, a worker died, a chunk
// failed over. It holds decisions, not requests: per-request facts belong
// in metrics and spans, where they cannot push a decision out of the ring.
// One log sits in every electd daemon
// (backing GET /v1/events and the /v1/events/stream SSE feed), and
// GET /v1/fleetz merges every node's recent events into one fleet-wide
// timeline.
//
// The discipline mirrors SpanCollector: memory is fixed at construction,
// the newest events win, every method is safe for concurrent use, and every
// method is nil-receiver-safe — a disabled journal is a nil *EventLog whose
// Emit costs one nil check and zero heap allocations (pinned by
// TestNilEventLogEmitAllocs).

import (
	"sync"
	"time"
)

// Event is one journal entry: what happened (Kind), when (TS, unix
// microseconds), where (Node), plus free-form detail fields. Seq is the
// log-wide insertion sequence — strictly increasing, so ?since= paging and
// fleet merges have a stable order even within one microsecond.
type Event struct {
	Seq    uint64            `json:"seq"`
	TS     int64             `json:"ts_us"`
	Node   string            `json:"node,omitempty"`
	Kind   string            `json:"kind"`
	Fields map[string]string `json:"fields,omitempty"`
}

// DefaultEventCapacity bounds a log built with capacity 0: a few minutes of
// control-plane and job churn without holding a long daemon's full history.
const DefaultEventCapacity = 1024

// EventLog stores events in one bounded ring kept in Seq order and fans
// new events out to subscribers (the SSE stream). One mutex orders
// everything: an event's Seq is assigned, stored and sent to subscribers
// under it, so every subscriber sees strictly increasing Seq — the SSE
// stream discards any event at or below the last Seq it sent. All methods
// are safe for concurrent use and nil-receiver-safe.
type EventLog struct {
	node string

	mu      sync.Mutex
	seq     uint64
	buf     []Event // ring: buf[head] is the oldest held event once full
	head    int
	subs    map[int]chan Event
	nextSub int
}

// NewEventLog builds a journal holding at most capacity events (<= 0 means
// DefaultEventCapacity). node is stamped on every event this log emits —
// the daemon's instance name, so merged fleet timelines tell nodes apart.
func NewEventLog(capacity int, node string) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &EventLog{node: node, buf: make([]Event, 0, capacity), subs: make(map[int]chan Event)}
}

// Node is the name stamped on this log's events ("" on a nil log).
func (l *EventLog) Node() string {
	if l == nil {
		return ""
	}
	return l.node
}

// Emit journals one event of the given kind with alternating key/value
// detail pairs (a trailing odd key is dropped). A nil log ignores the call
// for the price of one branch — and because the variadic slice never
// escapes, the disabled path allocates nothing.
func (l *EventLog) Emit(kind string, kv ...string) {
	if l == nil {
		return
	}
	var fields map[string]string
	if len(kv) >= 2 {
		fields = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			fields[kv[i]] = kv[i+1]
		}
	}
	e := Event{
		TS:     time.Now().UnixMicro(),
		Node:   l.node,
		Kind:   kind,
		Fields: fields,
	}
	l.mu.Lock()
	l.seq++
	e.Seq = l.seq
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
	} else {
		l.buf[l.head] = e
		l.head = (l.head + 1) % len(l.buf)
	}
	// Fan out under the same lock, dropping on full channels — a slow SSE
	// consumer loses events, never blocks an emitter.
	for _, ch := range l.subs {
		select {
		case ch <- e:
		default:
		}
	}
	l.mu.Unlock()
}

// Len reports how many events are currently held.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}

// Events returns held events with Seq > since, oldest first, keeping only
// the newest limit when more qualify (limit <= 0 means no cap). since=0
// returns everything held.
func (l *EventLog) Events(since uint64, limit int) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for i := range l.buf {
		if e := l.buf[(l.head+i)%len(l.buf)]; e.Seq > since {
			out = append(out, e)
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// Subscribe registers for every subsequent event: the returned channel
// (buffered; events are dropped, not blocked, when the consumer lags)
// receives each Emit until stop is called. The SSE stream endpoint sits
// directly on this. A nil log returns a nil channel (which never delivers)
// and a no-op stop.
func (l *EventLog) Subscribe() (<-chan Event, func()) {
	if l == nil {
		return nil, func() {}
	}
	ch := make(chan Event, 64)
	l.mu.Lock()
	id := l.nextSub
	l.nextSub++
	l.subs[id] = ch
	l.mu.Unlock()
	var once sync.Once
	return ch, func() {
		once.Do(func() {
			l.mu.Lock()
			delete(l.subs, id)
			l.mu.Unlock()
			close(ch)
		})
	}
}
