package obs

import (
	"sync"
	"testing"
	"time"
)

func TestEventLogBasics(t *testing.T) {
	l := NewEventLog(64, "n1")
	l.Emit("campaign.won", "epoch", "3")
	l.Emit("lease.grant", "epoch", "3", "holder", "n1")
	l.Emit("fence.reject")

	if got := l.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	events := l.Events(0, 0)
	if len(events) != 3 {
		t.Fatalf("Events = %d entries, want 3", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("events not seq-ascending: %d then %d", events[i-1].Seq, events[i].Seq)
		}
	}
	if events[0].Kind != "campaign.won" || events[0].Fields["epoch"] != "3" {
		t.Fatalf("first event = %+v", events[0])
	}
	if events[0].Node != "n1" {
		t.Fatalf("node = %q, want n1", events[0].Node)
	}
	if events[2].Fields != nil {
		t.Fatalf("fieldless event has fields %v", events[2].Fields)
	}
	if events[0].TS <= 0 || events[0].TS > time.Now().UnixMicro() {
		t.Fatalf("implausible timestamp %d", events[0].TS)
	}

	// ?since= paging: only events after the given sequence.
	rest := l.Events(events[0].Seq, 0)
	if len(rest) != 2 || rest[0].Kind != "lease.grant" {
		t.Fatalf("Events(since) = %+v, want the 2 later events", rest)
	}
	// limit keeps the newest.
	last := l.Events(0, 1)
	if len(last) != 1 || last[0].Kind != "fence.reject" {
		t.Fatalf("Events(0, 1) = %+v, want the newest event", last)
	}
}

func TestEventLogBounded(t *testing.T) {
	l := NewEventLog(32, "n1")
	for i := 0; i < 500; i++ {
		l.Emit("tick")
	}
	if got := l.Len(); got > 32 {
		t.Fatalf("Len = %d after 500 emits into capacity 32", got)
	}
	events := l.Events(0, 0)
	// The newest event always survives.
	if events[len(events)-1].Seq != 500 {
		t.Fatalf("newest surviving seq = %d, want 500", events[len(events)-1].Seq)
	}
}

func TestNilEventLog(t *testing.T) {
	var l *EventLog
	l.Emit("anything", "k", "v") // must not panic
	if l.Len() != 0 || l.Events(0, 0) != nil || l.Node() != "" {
		t.Fatal("nil log not inert")
	}
	ch, stop := l.Subscribe()
	if ch != nil {
		t.Fatal("nil log returned a live subscription")
	}
	stop()
}

// TestNilEventLogEmitAllocs pins the disabled path's zero-allocation claim:
// a daemon running without an event journal pays one nil check per Emit and
// nothing else — the same discipline the span collector and RoundTrace hold
// (and TestRoundLoopAllocBudget enforces engine-side).
func TestNilEventLogEmitAllocs(t *testing.T) {
	var l *EventLog
	allocs := testing.AllocsPerRun(1000, func() {
		l.Emit("campaign.won", "epoch", "3", "live", "3")
	})
	if allocs != 0 {
		t.Fatalf("nil EventLog.Emit allocates %.1f per call, want 0", allocs)
	}
}

func TestEventLogSubscribe(t *testing.T) {
	l := NewEventLog(64, "n1")
	ch, stop := l.Subscribe()
	defer stop()
	l.Emit("worker.down", "url", "http://w1")
	select {
	case e := <-ch:
		if e.Kind != "worker.down" || e.Fields["url"] != "http://w1" {
			t.Fatalf("subscribed event = %+v", e)
		}
	case <-time.After(time.Second):
		t.Fatal("subscription never delivered")
	}
	stop()
	stop() // idempotent
	if _, open := <-ch; open {
		t.Fatal("channel still open after stop")
	}
}

// TestEventLogConcurrent is the -race hammer: emitters, readers and a
// churning subscriber all at once.
func TestEventLogConcurrent(t *testing.T) {
	l := NewEventLog(128, "n1")
	var wg sync.WaitGroup
	stopCh := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Emit("tick", "g", "x")
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopCh:
				return
			default:
				l.Events(0, 10)
				l.Len()
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			ch, stop := l.Subscribe()
			select {
			case <-ch:
			default:
			}
			stop()
		}
	}()
	// Wait for emitters and the subscriber churn, then release the reader.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(10 * time.Millisecond)
	close(stopCh)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent hammer wedged")
	}
	if l.Len() == 0 {
		t.Fatal("no events survived the hammer")
	}
}

// TestEventLogSubscriberOrder pins the journal's fan-out order: events from
// concurrent emitters must reach a subscriber in strictly increasing Seq,
// because the SSE stream drops any event whose Seq is not above the last
// one it sent. A subscriber that keeps up may lose nothing to reordering.
func TestEventLogSubscriberOrder(t *testing.T) {
	const trials, emitters, perEmitter = 40, 4, 200
	for trial := 0; trial < trials; trial++ {
		l := NewEventLog(0, "n1")
		ch, stop := l.Subscribe()
		var got []uint64
		drained := make(chan struct{})
		go func() {
			for e := range ch {
				got = append(got, e.Seq)
			}
			close(drained)
		}()
		var wg sync.WaitGroup
		for g := 0; g < emitters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perEmitter; i++ {
					l.Emit("tick")
				}
			}()
		}
		wg.Wait()
		stop()
		<-drained
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("trial %d: subscriber saw seq %d after %d", trial, got[i], got[i-1])
			}
		}
	}
}
