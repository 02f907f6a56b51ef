// Package jobs is the serving layer's execution core: a bounded job queue
// feeding a worker pool that drives elect.Run / elect.RunMany, with job
// states, cancellation, per-job progress counters and a subscription hook
// for streaming progress (the electd daemon's SSE endpoint sits directly on
// Subscribe).
//
// Every job optionally reads through an elect.Cache, so repeated
// deterministic work — the dominant shape of sweep traffic — is served from
// stored bytes instead of recomputed.
package jobs

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cliquelect/elect"
)

// State is a job's lifecycle phase.
type State string

// States. Queued and Running are transient; Done, Failed and Canceled are
// terminal.
const (
	Queued   State = "queued"
	Running  State = "running"
	Done     State = "done"
	Failed   State = "failed"
	Canceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Canceled }

// Kind distinguishes single runs, batches and fleet chunks.
type Kind string

// Kinds.
const (
	KindRun   Kind = "run"
	KindBatch Kind = "batch"
	// KindChunk is a contiguous cell range of a batch grid, dispatched to
	// this daemon by a fleet coordinator (see internal/distrib). Chunks run
	// through the same queue and worker pool as everything else, so
	// /healthz's queue gauges count fleet load too.
	KindChunk Kind = "chunk"
)

// Errors returned by Submit*.
var (
	ErrQueueFull = errors.New("jobs: queue full")
	ErrClosed    = errors.New("jobs: manager closed")
)

// Config sizes a Manager.
type Config struct {
	// Workers is the pool size; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds how many jobs may wait beyond the ones running;
	// submissions past the bound fail fast with ErrQueueFull (the daemon
	// turns that into 503). 0 means 256.
	QueueDepth int
	// Cache, when non-nil, is consulted by every job: run jobs go through
	// elect.RunCached, chunk jobs through elect.RunRange and batch jobs
	// through elect.RunMany. A run's or a chunk cell's result bytes are the
	// ones elect.RunCached returns, cached or not. Jobs submitted with
	// NoCache opt out individually.
	Cache elect.Cache
	// BatchWorkers caps the sharded RunMany executor of each batch job.
	// Without a cap, every concurrent batch job spins up GOMAXPROCS workers
	// of its own and the daemon oversubscribes the machine Workers-fold; a
	// deployment that sizes Workers for concurrency should size
	// BatchWorkers so Workers*BatchWorkers matches the cores available.
	// 0 means uncapped (each job defaults to GOMAXPROCS).
	BatchWorkers int
	// Observe, when non-nil, sees every state change of every accepted job,
	// exactly once each and in order: Queued when Submit* accepts the job,
	// Running when a worker starts it, then its terminal state. A job
	// canceled while queued goes straight from Queued to Canceled, with
	// Started left zero. Queue wait is Started-Created (Finished-Created for
	// such a job) and execution time Finished-Started. Observe is called
	// synchronously with the job lock held (and, for Queued, the manager
	// lock): it must be fast, non-blocking, and must not call back into the
	// job or manager. The service layer feeds its job metrics and trace
	// spans from it, keeping jobs free of any obs dependency.
	Observe func(s Snapshot)
	// CheckFence, when non-nil, re-validates a chunk job's fencing token
	// (WithFence) at the moment it begins executing: a non-nil error fails
	// the job with that error instead of running it. The service layer
	// wires the control plane's epoch check in here, so a chunk that was
	// queued under one coordinator and would execute after that
	// coordinator was deposed is rejected rather than computed — the
	// execution-time half of the split-brain fence (the HTTP handler
	// pre-checks at submission for a fast 409). The same calling
	// discipline as Observe applies: fast, non-blocking, no calls back
	// into the manager.
	CheckFence func(fence uint64) error
}

// jobRetention bounds the job table: once it grows past the bound, the
// oldest terminal jobs (and their retained results) are forgotten, so a
// long-lived daemon under sustained traffic does not accumulate every
// Result it ever served. Queued and running jobs are never evicted.
const jobRetention = 1024

// Manager owns the queue, the workers and the job table.
type Manager struct {
	cache        elect.Cache
	maxJobs      int
	batchWorkers int
	checkFence   func(uint64) error
	observe      func(Snapshot)
	queue        chan *Job
	wg           sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // insertion order, for stable listings
	closed bool
}

// NewManager starts the worker pool.
func NewManager(cfg Config) *Manager {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 256
	}
	m := &Manager{
		cache:        cfg.Cache,
		maxJobs:      jobRetention,
		batchWorkers: cfg.BatchWorkers,
		checkFence:   cfg.CheckFence,
		observe:      cfg.Observe,
		queue:        make(chan *Job, depth),
		jobs:         make(map[string]*Job),
	}
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Close stops accepting jobs, cancels everything still queued, and waits
// for in-flight jobs to finish.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	for _, j := range m.jobs {
		j.Cancel()
	}
	close(m.queue)
	m.mu.Unlock()
	m.wg.Wait()
}

// SubmitOption tweaks one submission.
type SubmitOption func(*Job)

// NoCache makes the job bypass the manager's result cache in both
// directions (no lookup, no store).
func NoCache() SubmitOption { return func(j *Job) { j.noCache = true } }

// WithTraceparent attaches the submitting request's W3C traceparent header
// value to the job. Jobs treat it as an opaque string surfaced back through
// Snapshot.Trace — the service layer parses it to parent the queue-wait and
// exec spans it emits from the Observe hook, so this package carries trace
// context without importing the tracing layer.
func WithTraceparent(tp string) SubmitOption { return func(j *Job) { j.trace = tp } }

// WithFence attaches a dispatching coordinator's fencing token (its
// election epoch) to a chunk job. The manager's CheckFence hook re-checks
// it when the job starts executing; 0 (the default) marks an unfenced
// dispatcher and always passes.
func WithFence(token uint64) SubmitOption { return func(j *Job) { j.fence = token } }

// SubmitRun enqueues a single election run.
func (m *Manager) SubmitRun(spec elect.Spec, opts []elect.Option, sopts ...SubmitOption) (*Job, error) {
	j := newJob(KindRun, spec, 1)
	j.opts = opts
	return m.submit(j, sopts)
}

// SubmitBatch enqueues a RunMany grid. The batch's Cache, OnResult and
// Cancel fields are owned by the job machinery and overwritten.
func (m *Manager) SubmitBatch(spec elect.Spec, batch elect.Batch, sopts ...SubmitOption) (*Job, error) {
	j := newJob(KindBatch, spec, elect.GridSize(batch.Ns, batch.Seeds, batch.Topos))
	j.batch = batch
	return m.submit(j, sopts)
}

// SubmitChunk enqueues cells [start, start+count) of the batch's canonical
// grid (elect.RunRange). A range that fails elect.ValidRange is rejected
// here, before it takes a queue slot; the batch's Cache, OnResult and
// Cancel fields are owned by the job machinery.
func (m *Manager) SubmitChunk(spec elect.Spec, batch elect.Batch, start, count int, sopts ...SubmitOption) (*Job, error) {
	if err := elect.ValidRange(&batch, start, count); err != nil {
		return nil, err
	}
	j := newJob(KindChunk, spec, count)
	j.batch = batch
	j.start, j.count = start, count
	return m.submit(j, sopts)
}

// QueueDepth is the number of accepted jobs not yet picked up by a worker —
// the back-pressure gauge /healthz exports for operators.
func (m *Manager) QueueDepth() int { return len(m.queue) }

func (m *Manager) submit(j *Job, sopts []SubmitOption) (*Job, error) {
	for _, o := range sopts {
		o(j)
	}
	j.m = m
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	// Only submit sends on the queue, and always under m.mu, so a free slot
	// seen here stays free: the job is observed Queued before the send
	// hands it to the workers, and the send cannot block.
	if len(m.queue) == cap(m.queue) {
		return nil, ErrQueueFull
	}
	j.mu.Lock()
	j.observeLocked()
	j.mu.Unlock()
	m.queue <- j
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.pruneLocked()
	return j, nil
}

// pruneLocked forgets the oldest terminal jobs once the table exceeds the
// bound. Non-terminal jobs are kept regardless, so the table can exceed
// maxJobs only by the number of live jobs. In steady state the oldest job
// is terminal and is popped off the front, so a submit costs O(1); only a
// live job at the front makes it scan the table. Caller holds m.mu.
func (m *Manager) pruneLocked() {
	for len(m.order) > m.maxJobs && m.jobs[m.order[0]].terminal() {
		delete(m.jobs, m.order[0])
		m.order[0] = "" // release the ID; append reallocates the front away
		m.order = m.order[1:]
	}
	if len(m.order) <= m.maxJobs {
		return
	}
	kept := m.order[:0]
	excess := len(m.order) - m.maxJobs
	for _, id := range m.order {
		if excess > 0 && m.jobs[id].terminal() {
			delete(m.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// Get finds a job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs lists every known job in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Counts tallies jobs by state — the daemon's /healthz summary.
func (m *Manager) Counts() map[State]int {
	out := make(map[State]int, 5)
	for _, j := range m.Jobs() {
		out[j.Snapshot().State]++
	}
	return out
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		j.execute()
	}
}

// Job is one queued or executing unit of election work. All exported
// methods are safe for concurrent use.
type Job struct {
	ID   string
	Kind Kind

	spec         elect.Spec
	opts         []elect.Option // KindRun
	batch        elect.Batch    // KindBatch, KindChunk
	start, count int            // KindChunk cell range
	noCache      bool
	fence        uint64 // KindChunk fencing token (WithFence)
	trace        string // opaque traceparent (WithTraceparent)

	m *Manager // the owning manager, set on submission

	cancel     chan struct{}
	cancelOnce sync.Once
	doneCh     chan struct{}

	mu       sync.Mutex
	state    State
	err      error
	created  time.Time
	started  time.Time
	finished time.Time
	done     int
	total    int
	cacheHit bool
	result   []byte   // a run's or batch's encoded result (see Result), until taken
	cells    [][]byte // a chunk's encoded cells in order (see TakeCells), until taken
	taken    bool     // TakeResult or TakeCells was called: nothing is kept from then on
	subs     map[int]chan Snapshot
	nextSub  int
}

// Snapshot is a point-in-time, data-only view of a job, safe to hold after
// the job moves on.
type Snapshot struct {
	ID       string
	Kind     Kind
	Spec     string
	State    State
	Err      string
	Done     int
	Total    int
	CacheHit bool
	Created  time.Time
	Started  time.Time
	Finished time.Time
	// Trace is the opaque traceparent attached at submission (empty for
	// untraced jobs).
	Trace string
}

func newJob(kind Kind, spec elect.Spec, total int) *Job {
	return &Job{
		ID:      newID(),
		Kind:    kind,
		spec:    spec,
		cancel:  make(chan struct{}),
		doneCh:  make(chan struct{}),
		state:   Queued,
		created: time.Now(),
		total:   total,
		subs:    make(map[int]chan Snapshot),
	}
}

// newID returns a 12-hex-char random job ID ("j" prefix).
func newID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to timestamp
		// uniqueness rather than crashing the daemon.
		return fmt.Sprintf("j%012x", time.Now().UnixNano()&0xffffffffffff)
	}
	return "j" + hex.EncodeToString(b[:])
}

// Snapshot returns the job's current view.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

func (j *Job) snapshotLocked() Snapshot {
	s := Snapshot{
		ID: j.ID, Kind: j.Kind, Spec: j.spec.Name, State: j.state,
		Done: j.done, Total: j.total, CacheHit: j.cacheHit,
		Created: j.created, Started: j.started, Finished: j.finished,
		Trace: j.trace,
	}
	if j.err != nil {
		s.Err = j.err.Error()
	}
	return s
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// terminal reports whether the job has reached a terminal state, without
// taking its lock: finishLocked closes Done as it sets that state.
func (j *Job) terminal() bool {
	select {
	case <-j.doneCh:
		return true
	default:
		return false
	}
}

// Err returns the failure cause of a Failed job (nil otherwise).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Result returns a Done run or batch job's result as the JSON value its
// reply carries: a run's Result as elect.RunCached returns it, a batch's
// BatchResult as elect.EncodeBatchResult writes it. It is nil until the job
// is Done, for a job that failed or was canceled, after TakeResult, and for
// a chunk, whose cells only TakeCells hands out. The bytes must not be
// modified.
func (j *Job) Result() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// TakeResult is Result for the one caller that answers the submission: the
// first call returns the bytes and drops the job's reference, so the job
// table keeps none. Every later call returns nil, and so does a call before
// the job is done, after which the job never keeps its result at all. On a
// chunk it drops the cells and returns nil: TakeCells is a chunk's accessor.
func (j *Job) TakeResult() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := j.result
	j.result, j.cells, j.taken = nil, nil, true
	return out
}

// TakeCells is TakeResult for a chunk, and a chunk's only result accessor:
// each cell's bytes in cell order, as elect.RunRange returned them, for a
// reply that writes the array itself. The cells must not be modified.
func (j *Job) TakeCells() [][]byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	cells := j.cells
	j.result, j.cells, j.taken = nil, nil, true
	return cells
}

// Cancel requests cancellation: a queued job is canceled immediately (the
// worker skips it), a running batch stops dispatching and cancels, and a
// running single election — they take microseconds to milliseconds — is
// allowed to finish. Canceling a terminal job is a no-op.
func (j *Job) Cancel() {
	j.cancelOnce.Do(func() { close(j.cancel) })
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == Queued {
		j.finishLocked(Canceled, nil)
	}
}

// Subscribe registers for progress snapshots: the current one immediately,
// one per subsequent transition or completed batch run, and the terminal
// one last, after which the channel closes. Slow consumers lose
// intermediate snapshots, never the terminal one. The returned stop
// function unregisters (idempotent).
func (j *Job) Subscribe() (<-chan Snapshot, func()) {
	ch := make(chan Snapshot, 16)
	j.mu.Lock()
	ch <- j.snapshotLocked()
	if j.state.Terminal() {
		close(ch)
		j.mu.Unlock()
		return ch, func() {}
	}
	id := j.nextSub
	j.nextSub++
	j.subs[id] = ch
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if c, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(c)
		}
	}
}

// notifyLocked fans the current snapshot out to subscribers, dropping
// updates on full channels unless the state is terminal (then the buffer is
// drained first so the terminal snapshot always lands). Draining must be
// non-blocking: a subscriber may race us for its own buffered elements, and
// a blocking receive here would deadlock the job (we hold j.mu). Caller
// holds j.mu.
func (j *Job) notifyLocked() {
	s := j.snapshotLocked()
	for _, ch := range j.subs {
		if s.State.Terminal() {
		drain:
			for {
				select {
				case <-ch:
				default:
					break drain
				}
			}
		}
		select {
		case ch <- s:
		default:
		}
	}
}

// observeLocked reports the job's current state to the manager's Observe
// hook. Caller holds j.mu.
func (j *Job) observeLocked() {
	if j.m.observe != nil {
		j.m.observe(j.snapshotLocked())
	}
}

// finishLocked moves the job to a terminal state, closes Done and releases
// subscribers. Caller holds j.mu.
func (j *Job) finishLocked(state State, err error) {
	j.state = state
	j.err = err
	j.finished = time.Now()
	j.observeLocked()
	j.notifyLocked()
	for id, ch := range j.subs {
		delete(j.subs, id)
		close(ch)
	}
	close(j.doneCh)
}

// execute runs the job on a worker goroutine. A chunk's fencing token is
// re-validated at execution start — the queued→running edge is where a
// token stamped by a since-deposed coordinator must be caught.
func (j *Job) execute() {
	j.mu.Lock()
	if j.state != Queued { // canceled while waiting
		j.mu.Unlock()
		return
	}
	j.state = Running
	j.started = time.Now()
	j.observeLocked()
	j.notifyLocked()
	j.mu.Unlock()

	m := j.m
	if j.Kind == KindChunk && m.checkFence != nil {
		if err := m.checkFence(j.fence); err != nil {
			j.mu.Lock()
			j.finishLocked(Failed, err)
			j.mu.Unlock()
			return
		}
	}

	cache := m.cache
	if j.noCache {
		cache = nil
	}
	var (
		out   []byte
		cells [][]byte
		hit   bool
		err   error
	)
	switch j.Kind {
	case KindRun:
		out, hit, err = elect.RunCached(cache, j.spec, j.opts...)

	case KindBatch, KindChunk:
		b := j.batch
		b.Cache = cache
		b.Cancel = j.cancel
		if m.batchWorkers > 0 && (b.Workers <= 0 || b.Workers > m.batchWorkers) {
			b.Workers = m.batchWorkers
		}
		b.OnResult = func(done, total int) {
			j.mu.Lock()
			if done > j.done {
				j.done = done
			}
			j.total = total
			j.notifyLocked()
			j.mu.Unlock()
		}
		if j.Kind == KindChunk {
			_, cells, err = elect.RunRange(j.spec, b, j.start, j.count)
		} else {
			var res *elect.BatchResult
			if res, err = elect.RunMany(j.spec, b); err == nil {
				out, err = elect.EncodeBatchResult(res)
			}
		}
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case errors.Is(err, elect.ErrCanceled):
		j.finishLocked(Canceled, nil)
	case err != nil:
		j.finishLocked(Failed, err)
	default:
		if !j.taken {
			j.result, j.cells = out, cells
		}
		j.cacheHit = hit
		j.done = j.total
		j.finishLocked(Done, nil)
	}
}
