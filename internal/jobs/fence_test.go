package jobs

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cliquelect/elect"
)

// fenceGate is what the service layer wires as Config.CheckFence, modeled
// without importing internal/control (jobs must stay control-free): an
// atomic epoch standing in for the node's election state, revoked by
// bumping it.
type fenceGate struct {
	epoch   atomic.Uint64
	rejects atomic.Int64
}

var errStale = errors.New("stale fencing token")

func (g *fenceGate) check(fence uint64) error {
	if fence == 0 || fence >= g.epoch.Load() {
		return nil
	}
	g.rejects.Add(1)
	return fmt.Errorf("%w: token %d", errStale, fence)
}

// TestChunkFenceRejectedAtExecution pins the split-brain window the
// execution-time re-check exists for: the chunk is ACCEPTED while its
// token is current, the lease is revoked while it sits in the queue, and
// execution must then refuse to run it.
func TestChunkFenceRejectedAtExecution(t *testing.T) {
	gate := &fenceGate{}
	gate.epoch.Store(1)

	// One worker pinned by a slow job, so the fenced chunk queues behind it.
	block := make(chan struct{})
	m := NewManager(Config{
		Workers:    1,
		CheckFence: gate.check,
		Observe: func(s Snapshot) {
			if s.State == Running {
				<-block
			}
		},
	})
	defer m.Close()

	spec := mustSpec(t, "tradeoff")
	batch := elect.Batch{Ns: []int{16}, Seeds: elect.Seeds(1, 4)}
	j, err := m.SubmitChunk(spec, batch, 0, 2, WithFence(1))
	if err != nil {
		t.Fatal(err)
	}
	// Revoke while queued (a new coordinator was elected), then release.
	gate.epoch.Store(2)
	close(block)

	s := wait(t, j)
	if s.State != Failed {
		t.Fatalf("stale-fenced chunk finished %s, want failed", s.State)
	}
	if !errors.Is(j.Err(), errStale) {
		t.Fatalf("job error %v does not unwrap to the fence error", j.Err())
	}
	if gate.rejects.Load() != 1 {
		t.Fatalf("gate counted %d rejects, want 1", gate.rejects.Load())
	}
}

// TestChunkFenceCurrentAndLegacyAccepted: tokens at (or above) the epoch
// run, and token 0 — an unfenced legacy dispatcher — always runs.
func TestChunkFenceCurrentAndLegacyAccepted(t *testing.T) {
	gate := &fenceGate{}
	gate.epoch.Store(3)
	m := NewManager(Config{Workers: 2, CheckFence: gate.check})
	defer m.Close()

	spec := mustSpec(t, "tradeoff")
	batch := elect.Batch{Ns: []int{16}, Seeds: elect.Seeds(1, 4)}
	for _, fence := range []uint64{0, 3, 9} {
		var opts []SubmitOption
		if fence > 0 {
			opts = append(opts, WithFence(fence))
		}
		j, err := m.SubmitChunk(spec, batch, 0, 2, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if s := wait(t, j); s.State != Done {
			t.Fatalf("fence %d: chunk %s (%s), want done", fence, s.State, s.Err)
		}
	}
	if gate.rejects.Load() != 0 {
		t.Fatalf("accepted tokens counted as rejects: %d", gate.rejects.Load())
	}
}

// TestJobsFenceHammer is the -race stress of the whole submit/cancel/hook
// surface under concurrent lease revocation: submitters race chunk and run
// jobs against an epoch bumper and a canceler, and at the end every job
// must be terminal, every terminal hook fired exactly once, and every
// fence-failed job must carry the gate's error.
func TestJobsFenceHammer(t *testing.T) {
	const (
		submitters   = 4
		jobsPerSub   = 20
		epochBumps   = 40
		cancelEvery  = 5
		totalSubmits = submitters * jobsPerSub
	)
	gate := &fenceGate{}
	gate.epoch.Store(1)

	var doneHooks atomic.Int64
	m := NewManager(Config{
		Workers:    4,
		QueueDepth: totalSubmits,
		CheckFence: gate.check,
		Observe: func(s Snapshot) {
			if s.State.Terminal() {
				doneHooks.Add(1)
			}
		},
	})
	defer m.Close()

	spec := mustSpec(t, "tradeoff")
	batch := elect.Batch{Ns: []int{16}, Seeds: elect.Seeds(1, 8)}

	// Lease revocation: the epoch marches forward while jobs are in flight.
	stopBump := make(chan struct{})
	var bumper sync.WaitGroup
	bumper.Add(1)
	go func() {
		defer bumper.Done()
		for i := 0; i < epochBumps; i++ {
			select {
			case <-stopBump:
				return
			default:
			}
			gate.epoch.Add(1)
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	jobs := make(chan *Job, totalSubmits)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < jobsPerSub; i++ {
				var (
					j   *Job
					err error
				)
				if i%2 == 0 {
					// Chunks stamped with the CURRENT epoch: some will go
					// stale in the queue as the bumper advances it.
					j, err = m.SubmitChunk(spec, batch, 0, 4, WithFence(gate.epoch.Load()))
				} else {
					j, err = m.SubmitRun(spec, []elect.Option{elect.WithN(16), elect.WithSeed(uint64(s*100 + i))})
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if i%cancelEvery == 0 {
					j.Cancel()
				}
				jobs <- j
			}
		}(s)
	}
	wg.Wait()
	close(jobs)
	close(stopBump)
	bumper.Wait()

	var all []*Job
	for j := range jobs {
		all = append(all, j)
	}
	if len(all) != totalSubmits {
		t.Fatalf("submitted %d jobs, want %d", len(all), totalSubmits)
	}
	states := map[State]int{}
	for _, j := range all {
		s := wait(t, j)
		states[s.State]++
		switch s.State {
		case Done, Canceled:
		case Failed:
			if !errors.Is(j.Err(), errStale) {
				t.Fatalf("job %s failed with %v, want the fence error", j.ID, j.Err())
			}
		default:
			t.Fatalf("job %s not terminal: %s", j.ID, s.State)
		}
	}
	// Every job fired its terminal hook exactly once.
	deadline := time.Now().Add(30 * time.Second)
	for doneHooks.Load() < int64(totalSubmits) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := doneHooks.Load(); got != int64(totalSubmits) {
		t.Fatalf("Observe saw %d terminal states for %d jobs", got, totalSubmits)
	}
	// The bumper moved ~40 epochs while fences were stamped at submit time,
	// so SOME chunks must have been fenced — a hammer that never exercises
	// the rejection path proves nothing.
	if states[Failed] == 0 {
		t.Log("warning: no chunk went stale this run (timing); rejection path covered by TestChunkFenceRejectedAtExecution")
	}
	if gate.rejects.Load() < int64(states[Failed]) {
		t.Fatalf("gate rejects %d < failed jobs %d", gate.rejects.Load(), states[Failed])
	}
}
