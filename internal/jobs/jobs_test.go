package jobs

import (
	"sync"
	"testing"
	"time"

	"cliquelect/elect"
	"cliquelect/internal/resultcache"
)

func mustSpec(t *testing.T, name string) elect.Spec {
	t.Helper()
	spec, err := elect.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func wait(t *testing.T, j *Job) Snapshot {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish: %+v", j.ID, j.Snapshot())
	}
	return j.Snapshot()
}

func TestRunJobLifecycle(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	defer m.Close()

	j, err := m.SubmitRun(mustSpec(t, "tradeoff"), []elect.Option{elect.WithN(64), elect.WithSeed(3)})
	if err != nil {
		t.Fatal(err)
	}
	s := wait(t, j)
	if s.State != Done || s.Done != 1 || s.Total != 1 || s.Err != "" {
		t.Fatalf("snapshot %+v", s)
	}
	res, ok := j.Result()
	if !ok || !res.OK || res.N != 64 {
		t.Fatalf("result %+v ok=%v", res, ok)
	}
	if s.Started.Before(s.Created) || s.Finished.Before(s.Started) {
		t.Fatalf("timestamps out of order: %+v", s)
	}
	if got, found := m.Get(j.ID); !found || got != j {
		t.Fatal("Get lost the job")
	}
}

// observeStartsAndDones returns an Observe hook that sends each Running
// snapshot to starts and each terminal one to dones.
func observeStartsAndDones(starts, dones chan<- Snapshot) func(Snapshot) {
	return func(s Snapshot) {
		switch {
		case s.State == Running:
			starts <- s
		case s.State.Terminal():
			dones <- s
		}
	}
}

// TestJobHooksAndTraceparent covers the observation plumbing the service
// layer's tracing rides on: Observe sees the queued→running transition and
// the terminal snapshot, and the traceparent attached at submission
// surfaces in both.
func TestJobHooksAndTraceparent(t *testing.T) {
	starts := make(chan Snapshot, 1)
	dones := make(chan Snapshot, 1)
	m := NewManager(Config{
		Workers: 1,
		Observe: observeStartsAndDones(starts, dones),
	})
	defer m.Close()

	const tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	j, err := m.SubmitRun(mustSpec(t, "tradeoff"),
		[]elect.Option{elect.WithN(64), elect.WithSeed(3)}, WithTraceparent(tp))
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)

	started := <-starts
	if started.State != Running || started.Trace != tp || started.Started.IsZero() {
		t.Fatalf("running snapshot %+v", started)
	}
	done := <-dones
	if done.State != Done || done.Trace != tp || done.Kind != KindRun {
		t.Fatalf("terminal snapshot %+v", done)
	}
	if done.Finished.Before(done.Started) || done.Started.Before(done.Created) {
		t.Fatalf("hook timestamps out of order: %+v", done)
	}
	if snap := j.Snapshot(); snap.Trace != tp {
		t.Fatalf("Snapshot.Trace = %q, want %q", snap.Trace, tp)
	}
}

// TestQueueCanceledJobSkipsStartHook pins that a job canceled while queued
// is observed terminal (with zero Started) without ever being observed
// running.
func TestQueueCanceledJobSkipsStartHook(t *testing.T) {
	starts := make(chan Snapshot, 4)
	dones := make(chan Snapshot, 4)
	m := NewManager(Config{
		Workers: 1,
		Observe: observeStartsAndDones(starts, dones),
	})
	defer m.Close()

	// Occupy the single worker, then cancel a queued job behind it.
	blocker, err := m.SubmitBatch(mustSpec(t, "tradeoff"),
		elect.Batch{Ns: []int{256}, Seeds: elect.Seeds(1, 8)})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.SubmitRun(mustSpec(t, "tradeoff"), []elect.Option{elect.WithN(64)})
	if err != nil {
		t.Fatal(err)
	}
	queued.Cancel()
	if s := wait(t, queued); s.State != Canceled {
		t.Fatalf("queued job state %v", s.State)
	}
	wait(t, blocker)
	var sawCanceled bool
	for len(dones) > 0 {
		if s := <-dones; s.ID == queued.ID {
			sawCanceled = true
			if !s.Started.IsZero() {
				t.Fatalf("canceled-in-queue job has Started %v", s.Started)
			}
		}
	}
	if !sawCanceled {
		t.Fatal("Observe never saw the canceled job terminal")
	}
	for len(starts) > 0 {
		if s := <-starts; s.ID == queued.ID {
			t.Fatal("Observe saw a job canceled in the queue running")
		}
	}
}

// TestObserveOrder submits many fast jobs to two workers and checks that
// Observe sees every job's states exactly once each and in lifecycle
// order: queued, running, terminal — or queued, canceled for a job
// canceled before a worker took it. Cache hits keep the jobs short and a
// one-slot queue keeps the workers waiting on it, so a worker routinely
// takes a job while its submission is still returning.
func TestObserveOrder(t *testing.T) {
	const total = 2000
	var (
		mu   sync.Mutex
		seen = make(map[string][]State, total)
	)
	m := NewManager(Config{
		Workers:    2,
		QueueDepth: 1,
		Cache:      resultcache.New(),
		Observe: func(s Snapshot) {
			mu.Lock()
			seen[s.ID] = append(seen[s.ID], s.State)
			mu.Unlock()
		},
	})
	defer m.Close()

	spec := mustSpec(t, "tradeoff")
	all := make([]*Job, 0, total)
	for i := 0; i < total; i++ {
		opts := []elect.Option{elect.WithN(16), elect.WithSeed(uint64(i % 8))}
		j, err := m.SubmitRun(spec, opts)
		for err == ErrQueueFull {
			j, err = m.SubmitRun(spec, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			j.Cancel()
		}
		all = append(all, j)
	}
	for _, j := range all {
		wait(t, j)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, j := range all {
		got := seen[j.ID]
		lifecycle := len(got) == 3 && got[0] == Queued && got[1] == Running && got[2].Terminal()
		canceledInQueue := len(got) == 2 && got[0] == Queued && got[1] == Canceled
		if !lifecycle && !canceledInQueue {
			t.Fatalf("job %s observed as %v", j.ID, got)
		}
	}
}

func TestRunJobFailure(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	// K=1 is invalid for the tradeoff spec.
	j, err := m.SubmitRun(mustSpec(t, "tradeoff"), []elect.Option{elect.WithParams(elect.Params{K: 1})})
	if err != nil {
		t.Fatal(err)
	}
	s := wait(t, j)
	if s.State != Failed || s.Err == "" {
		t.Fatalf("snapshot %+v", s)
	}
	if j.Err() == nil {
		t.Fatal("Err() nil on failed job")
	}
}

func TestBatchJobProgress(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	defer m.Close()
	j, err := m.SubmitBatch(mustSpec(t, "tradeoff"), elect.Batch{
		Ns: []int{16, 32}, Seeds: elect.Seeds(1, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, stop := j.Subscribe()
	defer stop()
	s := wait(t, j)
	if s.State != Done || s.Done != 8 || s.Total != 8 {
		t.Fatalf("snapshot %+v", s)
	}
	if b, ok := j.BatchResult(); !ok || len(b.Runs) != 8 {
		t.Fatalf("batch result missing")
	}
	// The subscription must deliver a terminal snapshot and then close.
	var last Snapshot
	for snap := range sub {
		last = snap
	}
	if last.State != Done || last.Done != 8 {
		t.Fatalf("last streamed snapshot %+v", last)
	}
}

// TestBatchWorkersCap: a manager with a per-job parallelism cap clamps each
// batch's executor, and the capped batch produces results identical to an
// uncapped direct RunMany (the determinism contract is worker-count
// independent).
func TestBatchWorkersCap(t *testing.T) {
	m := NewManager(Config{Workers: 1, BatchWorkers: 1})
	defer m.Close()
	batch := elect.Batch{Ns: []int{16, 32}, Seeds: elect.Seeds(5, 3), Workers: 64}
	j, err := m.SubmitBatch(mustSpec(t, "tradeoff"), batch)
	if err != nil {
		t.Fatal(err)
	}
	if s := wait(t, j); s.State != Done {
		t.Fatalf("snapshot %+v", s)
	}
	got, ok := j.BatchResult()
	if !ok {
		t.Fatal("batch result missing")
	}
	want, err := elect.RunMany(mustSpec(t, "tradeoff"),
		elect.Batch{Ns: []int{16, 32}, Seeds: elect.Seeds(5, 3)})
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := elect.EncodeBatchResult(got)
	wb, _ := elect.EncodeBatchResult(want)
	if string(gb) != string(wb) {
		t.Fatal("capped batch diverged from direct RunMany")
	}
}

func TestCacheReadThrough(t *testing.T) {
	cache := resultcache.New()
	m := NewManager(Config{Workers: 1, Cache: cache})
	defer m.Close()
	opts := []elect.Option{elect.WithN(64), elect.WithSeed(5)}
	spec := mustSpec(t, "tradeoff")

	first, err := m.SubmitRun(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s := wait(t, first); s.CacheHit {
		t.Fatal("cold job reported a cache hit")
	}
	second, err := m.SubmitRun(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s := wait(t, second); !s.CacheHit {
		t.Fatal("repeated job missed the cache")
	}
	third, err := m.SubmitRun(spec, opts, NoCache())
	if err != nil {
		t.Fatal(err)
	}
	if s := wait(t, third); s.CacheHit {
		t.Fatal("NoCache job reported a cache hit")
	}
	r1, _ := first.Result()
	r2, _ := second.Result()
	r3, _ := third.Result()
	b1, _ := elect.EncodeResult(r1)
	b2, _ := elect.EncodeResult(r2)
	b3, _ := elect.EncodeResult(r3)
	if string(b1) != string(b2) || string(b2) != string(b3) {
		t.Fatal("cached, uncached and bypassed runs disagree")
	}
}

func TestQueueBoundAndCancel(t *testing.T) {
	// One worker, depth 1: occupy the worker with a slow-ish batch, then
	// fill the queue, then overflow it.
	m := NewManager(Config{Workers: 1, QueueDepth: 1})
	defer m.Close()
	spec := mustSpec(t, "tradeoff")
	blocker, err := m.SubmitBatch(spec, elect.Batch{Ns: []int{256}, Seeds: elect.Seeds(1, 64), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var queued *Job
	var overflowed bool
	for i := 0; i < 64; i++ {
		j, err := m.SubmitRun(spec, nil)
		if err == ErrQueueFull {
			overflowed = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		queued = j
	}
	if !overflowed {
		t.Fatal("queue never filled")
	}
	// Cancel the queued job: it must go terminal without running.
	if queued != nil {
		queued.Cancel()
		if s := queued.Snapshot(); s.State != Canceled && s.State != Running && s.State != Done {
			// Normally Canceled; Running/Done only if the worker got to it
			// in the race window before Cancel.
			t.Fatalf("queued job state %s", s.State)
		}
	}
	// Cancel the running batch: RunMany aborts with ErrCanceled.
	blocker.Cancel()
	if s := wait(t, blocker); s.State != Canceled && s.State != Done {
		t.Fatalf("blocker state %s", s.State)
	}
}

func TestSubscribeAfterTerminal(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	j, err := m.SubmitRun(mustSpec(t, "tradeoff"), []elect.Option{elect.WithN(16)})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)
	sub, stop := j.Subscribe()
	defer stop()
	snap, ok := <-sub
	if !ok || snap.State != Done {
		t.Fatalf("late subscriber got %+v ok=%v", snap, ok)
	}
	if _, ok := <-sub; ok {
		t.Fatal("late subscription not closed after terminal snapshot")
	}
}

// TestJobRetentionBound: a long-lived manager forgets its oldest terminal
// jobs past MaxJobs instead of accumulating every result it ever served.
func TestJobRetentionBound(t *testing.T) {
	m := NewManager(Config{Workers: 1, MaxJobs: 4})
	defer m.Close()
	spec := mustSpec(t, "tradeoff")
	var all []*Job
	for i := 0; i < 12; i++ {
		j, err := m.SubmitRun(spec, []elect.Option{elect.WithN(16), elect.WithSeed(uint64(i))})
		if err != nil {
			t.Fatal(err)
		}
		wait(t, j)
		all = append(all, j)
	}
	if got := len(m.Jobs()); got > 5 {
		t.Fatalf("job table holds %d jobs, want <= 5 (MaxJobs 4 + in-flight slack)", got)
	}
	if _, ok := m.Get(all[0].ID); ok {
		t.Error("oldest terminal job survived pruning")
	}
	if _, ok := m.Get(all[len(all)-1].ID); !ok {
		t.Error("newest job was pruned")
	}
}

func TestManagerClose(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	j, err := m.SubmitRun(mustSpec(t, "tradeoff"), []elect.Option{elect.WithN(16)})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if !j.Snapshot().State.Terminal() {
		t.Fatalf("job not terminal after Close: %+v", j.Snapshot())
	}
	if _, err := m.SubmitRun(mustSpec(t, "tradeoff"), nil); err != ErrClosed {
		t.Fatalf("submit after close: %v", err)
	}
	m.Close() // idempotent
}

// TestChunkJob: a KindChunk job executes exactly its cell range, its
// results match a direct elect.RunRange of the same range byte-for-byte,
// and progress counts the range (not the whole grid).
func TestChunkJob(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	defer m.Close()
	spec := mustSpec(t, "tradeoff")
	batch := elect.Batch{Ns: []int{32, 64}, Seeds: elect.Seeds(1, 3)}

	j, err := m.SubmitChunk(spec, batch, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := wait(t, j)
	if s.State != Done || s.Kind != KindChunk || s.Done != 3 || s.Total != 3 {
		t.Fatalf("snapshot %+v", s)
	}
	got, ok := j.ChunkResult()
	if !ok || len(got) != 3 {
		t.Fatalf("chunk result %d ok=%v", len(got), ok)
	}
	want, err := elect.RunRange(spec, batch, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		wb, _ := elect.EncodeResult(want[i])
		gb, _ := elect.EncodeResult(got[i])
		if string(wb) != string(gb) {
			t.Fatalf("cell %d differs from direct RunRange", i)
		}
	}

	// A chunk over an out-of-grid range fails cleanly.
	bad, err := m.SubmitChunk(spec, batch, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s := wait(t, bad); s.State != Failed {
		t.Fatalf("out-of-range chunk: %+v", s)
	}
	// A zero-cell chunk is rejected at submission.
	if _, err := m.SubmitChunk(spec, batch, 0, 0); err == nil {
		t.Fatal("empty chunk accepted")
	}
}

// TestChunkJobUsesCache: chunk cells read through the manager's cache, so a
// re-dispatched chunk replays instead of recomputing.
func TestChunkJobUsesCache(t *testing.T) {
	cache := resultcache.New()
	m := NewManager(Config{Workers: 1, Cache: cache})
	defer m.Close()
	spec := mustSpec(t, "tradeoff")
	batch := elect.Batch{Ns: []int{32}, Seeds: elect.Seeds(1, 4)}

	first, err := m.SubmitChunk(spec, batch, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	wait(t, first)
	misses := cache.Stats().Misses
	if misses != 4 || cache.Stats().Puts != 4 {
		t.Fatalf("cold chunk stats %+v", cache.Stats())
	}
	second, err := m.SubmitChunk(spec, batch, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	wait(t, second)
	st := cache.Stats()
	if st.Misses != misses || st.Hits != 4 {
		t.Fatalf("re-dispatched chunk recomputed: %+v", st)
	}
	a, _ := first.ChunkResult()
	b, _ := second.ChunkResult()
	for i := range a {
		ab, _ := elect.EncodeResult(a[i])
		bb, _ := elect.EncodeResult(b[i])
		if string(ab) != string(bb) {
			t.Fatalf("cached replay of cell %d differs", i)
		}
	}
}

func TestQueueDepthGauge(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	if d := m.QueueDepth(); d != 0 {
		t.Fatalf("idle queue depth %d", d)
	}
	// One long blocker occupies the worker; everything behind it queues.
	blocker, err := m.SubmitBatch(mustSpec(t, "tradeoff"), elect.Batch{
		Ns: []int{2048}, Seeds: elect.Seeds(1, 64), Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Cancel()
	queued, err := m.SubmitRun(mustSpec(t, "tradeoff"), []elect.Option{elect.WithN(16)})
	if err != nil {
		t.Fatal(err)
	}
	// A queued topology batch counts every cell of its grid, topology axis
	// included, before its first cell lands.
	topoBatch, err := m.SubmitBatch(mustSpec(t, "kuttenmoses"), elect.Batch{
		Topos: []string{"ring", "torus", "rreg"}, Ns: []int{16}, Seeds: elect.Seeds(1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := topoBatch.Snapshot(); s.Total != 6 {
		t.Fatalf("queued 3-topology x 2-seed batch reports Total %d, want 6", s.Total)
	}
	if d := m.QueueDepth(); d < 1 {
		// The blocker may have drained before the gauge was read; only then
		// is an empty queue legitimate.
		if !blocker.Snapshot().State.Terminal() {
			t.Fatalf("queue depth %d with a queued job", d)
		}
	}
	blocker.Cancel()
	wait(t, queued)
	if s := wait(t, topoBatch); s.State != Done || s.Done != 6 {
		t.Fatalf("topology batch finished %+v", s)
	}
}
