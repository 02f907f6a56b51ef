package service

import (
	"bytes"
	"context"
	"math"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"cliquelect/elect"
	"cliquelect/elect/client"
	"cliquelect/internal/resultcache"
)

// newTestDaemon mounts the service on an httptest server and returns a
// client against it.
func newTestDaemon(t *testing.T, cfg Config) (*client.Client, *Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return client.New(ts.URL), srv
}

func ctx(t *testing.T) context.Context {
	t.Helper()
	c, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return c
}

func TestSpecsEndpoint(t *testing.T) {
	c, _ := newTestDaemon(t, Config{})
	specs, err := c.Specs(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(elect.Registry()) {
		t.Fatalf("got %d specs, want %d", len(specs), len(elect.Registry()))
	}
	byName := map[string]client.SpecInfo{}
	for _, s := range specs {
		byName[s.Name] = s
	}
	tr, ok := byName["tradeoff"]
	if !ok || tr.Model != "sync" || !tr.Deterministic || len(tr.Engines) != 1 {
		t.Fatalf("tradeoff spec info %+v ok=%v", tr, ok)
	}
	if at := byName["asynctradeoff"]; len(at.Engines) != 2 {
		t.Fatalf("asynctradeoff engines %v", at.Engines)
	}
}

func TestSyncRunAndCacheSemantics(t *testing.T) {
	cache := resultcache.New()
	c, _ := newTestDaemon(t, Config{Cache: cache})
	req := client.RunRequest{Spec: "tradeoff", N: 128, Seed: 9,
		Options: client.Options{Params: &client.ParamSpec{K: intp(4)}}}

	cold, err := c.Run(ctx(t), req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit || cold.Result == nil || !cold.Result.OK || cold.Result.N != 128 {
		t.Fatalf("cold run %+v", cold)
	}
	// K=4 must have been merged over defaults (2k-3 = 5 rounds).
	if cold.Result.Rounds != 5 {
		t.Fatalf("params merge failed: rounds = %d, want 5", cold.Result.Rounds)
	}

	warm, err := c.Run(ctx(t), req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("repeat run missed the cache")
	}
	bypass := req
	bypass.NoCache = true
	direct, err := c.Run(ctx(t), bypass)
	if err != nil {
		t.Fatal(err)
	}
	if direct.CacheHit {
		t.Fatal("no_cache run reported a hit")
	}

	// All three must be byte-identical on the wire codec.
	cb, _ := elect.EncodeResult(*cold.Result)
	wb, _ := elect.EncodeResult(*warm.Result)
	db, _ := elect.EncodeResult(*direct.Result)
	if !bytes.Equal(cb, wb) || !bytes.Equal(wb, db) {
		t.Fatal("cached, warm and bypassed results differ")
	}

	h, err := c.Health(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Cache == nil || h.Cache.Hits < 1 || h.Cache.Puts < 1 {
		t.Fatalf("health %+v cache %+v", h, h.Cache)
	}
	if h.Jobs["done"] != 3 {
		t.Fatalf("job counts %+v", h.Jobs)
	}
}

func TestAsyncJobAndSSE(t *testing.T) {
	c, _ := newTestDaemon(t, Config{Cache: resultcache.New()})
	st, err := c.SubmitBatch(ctx(t), client.BatchRequest{
		Spec: "tradeoff", Ns: []int{32, 64}, SeedBase: 1, SeedCount: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Kind != "batch" || st.Total != 16 {
		t.Fatalf("submitted job %+v", st)
	}
	var mu sync.Mutex
	var events []client.JobStatus
	final, err := c.Stream(ctx(t), st.ID, func(s client.JobStatus) {
		mu.Lock()
		events = append(events, s)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.Job.State != "done" || final.Job.Done != 16 {
		t.Fatalf("final %+v", final.Job)
	}
	if final.Batch == nil || len(final.Batch.Runs) != 16 || len(final.Batch.Aggregates) != 2 {
		t.Fatalf("batch result missing or wrong shape")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) == 0 || !events[len(events)-1].Terminal() {
		t.Fatalf("SSE events: %d, last terminal: %v", len(events), len(events) > 0 && events[len(events)-1].Terminal())
	}
}

func TestAsyncRunPollWithWait(t *testing.T) {
	c, _ := newTestDaemon(t, Config{})
	st, err := c.Submit(ctx(t), client.RunRequest{Spec: "lasvegas", N: 64, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Wait(ctx(t), st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Job.State != "done" || resp.Result == nil || !resp.Result.OK {
		t.Fatalf("polled job %+v result %v", resp.Job, resp.Result)
	}
	all, err := c.Jobs(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].ID != st.ID {
		t.Fatalf("job listing %+v", all)
	}
}

func TestRequestValidation(t *testing.T) {
	c, _ := newTestDaemon(t, Config{})
	cases := []client.RunRequest{
		{Spec: "bogus"},
		{Spec: "tradeoff", Options: client.Options{Engine: "warp"}},
		{Spec: "tradeoff", Options: client.Options{Delays: "unit"}}, // sync spec
		{Spec: "tradeoff", Options: client.Options{Faults: "bogus=1"}},
		{Spec: "asynctradeoff", Options: client.Options{Delays: "bogus"}},
	}
	for _, req := range cases {
		if _, err := c.Run(ctx(t), req); err == nil {
			t.Errorf("request %+v accepted", req)
		} else if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != 400 {
			t.Errorf("request %+v: got %v, want 400", req, err)
		}
	}
	// Execution-time failures surface as 422.
	if _, err := c.Run(ctx(t), client.RunRequest{Spec: "tradeoff",
		Options: client.Options{Params: &client.ParamSpec{K: intp(1)}}}); err == nil {
		t.Error("invalid K accepted")
	} else if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != 422 {
		t.Errorf("invalid K: got %v, want 422", err)
	}
	// Faults on the live engine are rejected at execution with a clear error.
	if _, err := c.Run(ctx(t), client.RunRequest{Spec: "asynctradeoff",
		Options: client.Options{Engine: "live", Params: &client.ParamSpec{K: intp(2)}, Faults: "drop=0.1"}}); err == nil {
		t.Error("live engine accepted faults")
	}
	// Unknown job is 404.
	if _, err := c.Job(ctx(t), "jdeadbeef0000"); err == nil {
		t.Error("unknown job returned 200")
	} else if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != 404 {
		t.Errorf("unknown job: got %v, want 404", err)
	}
	// seeds and seed_base/seed_count are mutually exclusive.
	if _, err := c.Batch(ctx(t), client.BatchRequest{Spec: "tradeoff",
		Seeds: []uint64{1}, SeedBase: 1, SeedCount: 2}); err == nil {
		t.Error("conflicting seed fields accepted")
	}
}

func TestCancelEndpoint(t *testing.T) {
	// Workers: 1 and a long batch first, so the second job stays queued.
	c, _ := newTestDaemon(t, Config{Workers: 1})
	blocker, err := c.SubmitBatch(ctx(t), client.BatchRequest{
		Spec: "tradeoff", Ns: []int{2048}, SeedCount: 64, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.Submit(ctx(t), client.RunRequest{Spec: "tradeoff"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(ctx(t), queued.ID); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Wait(ctx(t), queued.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Job.State != "canceled" {
		// The only legitimate escape is the blocker draining before the
		// cancel landed, freeing the worker to run the "queued" job.
		if b, berr := c.Job(ctx(t), blocker.ID); berr != nil || !b.Job.Terminal() {
			t.Fatalf("queued job state %q after cancel (blocker %+v, err %v)",
				resp.Job.State, b, berr)
		}
		t.Logf("blocker drained before cancel; skipping queued-cancel assertion")
	}
	if err := c.Cancel(ctx(t), blocker.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx(t), blocker.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Job.State != "canceled" && final.Job.State != "done" {
		t.Fatalf("blocker state %q after cancel", final.Job.State)
	}
}

// TestSyncCanceledIs422: a synchronous run or batch whose job is canceled
// while queued answers 422 "<kind> canceled" instead of a 200 carrying no
// result, so client.Run and client.Batch return an *APIError.
func TestSyncCanceledIs422(t *testing.T) {
	c, _ := newTestDaemon(t, Config{Workers: 1})
	blocker, err := c.SubmitBatch(ctx(t), client.BatchRequest{
		Spec: "tradeoff", Ns: []int{4096}, SeedCount: 64, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Cancel(ctx(t), blocker.ID)
	for _, kind := range []string{"run", "batch"} {
		rctx := ctx(t)
		errc := make(chan error, 1)
		go func() {
			var err error
			if kind == "run" {
				_, err = c.Run(rctx, client.RunRequest{Spec: "tradeoff"})
			} else {
				_, err = c.Batch(rctx, client.BatchRequest{Spec: "tradeoff"})
			}
			errc <- err
		}()
		var id string
		for deadline := time.Now().Add(10 * time.Second); id == "" && time.Now().Before(deadline); {
			all, err := c.Jobs(ctx(t))
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range all {
				if j.Kind == kind && j.ID != blocker.ID && !j.Terminal() {
					id = j.ID
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
		if id == "" {
			t.Fatalf("sync %s job never showed up", kind)
		}
		if err := c.Cancel(ctx(t), id); err != nil {
			t.Fatal(err)
		}
		err := <-errc
		if err == nil {
			// Legitimate only if the blocker drained and the job ran.
			if b, berr := c.Job(ctx(t), blocker.ID); berr != nil || !b.Job.Terminal() {
				t.Fatalf("canceled sync %s returned no error (blocker %+v, err %v)", kind, b, berr)
			}
			t.Skipf("blocker drained before the %s was canceled", kind)
		}
		apiErr, ok := err.(*client.APIError)
		if !ok || apiErr.StatusCode != 422 || apiErr.Message != kind+" canceled" {
			t.Fatalf("canceled sync %s: got %v, want 422 %q", kind, err, kind+" canceled")
		}
	}
}

func TestQueueFullIs503(t *testing.T) {
	c, _ := newTestDaemon(t, Config{Workers: 1, QueueDepth: 1})
	// The blocker must outlive the submission loop below by construction
	// (64 runs at n=4096 is seconds of work; the loop is milliseconds), so
	// the single worker stays busy and the depth-1 queue must overflow.
	blocker, err := c.SubmitBatch(ctx(t), client.BatchRequest{
		Spec: "tradeoff", Ns: []int{4096}, SeedCount: 64, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Cancel(ctx(t), blocker.ID)
	var saw503 bool
	for i := 0; i < 32; i++ {
		_, err := c.Submit(ctx(t), client.RunRequest{Spec: "tradeoff"})
		if apiErr, ok := err.(*client.APIError); ok && apiErr.StatusCode == 503 {
			saw503 = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !saw503 {
		t.Fatal("queue never reported 503")
	}
}

func intp(v int) *int { return &v }

// TestChunkEndpoint: POST /v1/chunk computes exactly the requested cell
// range, byte-identical to a local RunRange, reads through the daemon's
// cache, and rejects malformed ranges with 400.
func TestChunkEndpoint(t *testing.T) {
	cache := resultcache.New()
	c, _ := newTestDaemon(t, Config{Cache: cache})
	req := client.ChunkRequest{
		Spec: "tradeoff", Ns: []int{32, 64}, Seeds: []uint64{1, 2, 3},
		Start: 1, Count: 4,
		Options: client.Options{Params: &client.ParamSpec{K: intp(4)}},
	}
	resp, err := c.Chunk(ctx(t), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("%d results, want 4", len(resp.Results))
	}
	spec, _ := elect.Lookup("tradeoff")
	want, _, err := elect.RunRange(spec, elect.Batch{
		Ns: []int{32, 64}, Seeds: []uint64{1, 2, 3},
		Options: []elect.Option{elect.WithParams(elect.Params{K: 4, D: 2, G: 1, Eps: 1.0 / 16})},
	}, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		wb, _ := elect.EncodeResult(want[i])
		gb, _ := elect.EncodeResult(resp.Results[i])
		if !bytes.Equal(wb, gb) {
			t.Fatalf("cell %d differs from local RunRange:\n %s\n %s", i, wb, gb)
		}
	}
	if cache.Stats().Puts != 4 {
		t.Fatalf("chunk cells not cached: %+v", cache.Stats())
	}
	// The same chunk again replays from the cache.
	if _, err := c.Chunk(ctx(t), req); err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Hits < 4 {
		t.Fatalf("re-dispatched chunk missed the cache: %+v", cache.Stats())
	}

	// Malformed ranges and bad options are 400, execution failures 422.
	for _, bad := range []client.ChunkRequest{
		{Spec: "tradeoff", Ns: []int{32}, Seeds: []uint64{1}, Start: 0, Count: 2},
		{Spec: "tradeoff", Ns: []int{32}, Seeds: []uint64{1}, Start: 1, Count: 1},
		{Spec: "tradeoff", Ns: []int{32}, Seeds: []uint64{1}, Start: -1, Count: 1},
		{Spec: "tradeoff", Ns: []int{32}, Seeds: []uint64{1}, Start: 0, Count: 0},
		{Spec: "tradeoff", Start: 0, Count: 2}, // empty axes: a 1-cell grid
		{Spec: "bogus", Start: 0, Count: 1},
		// start+count overflows int. Unchecked, a jobs worker indexed the
		// topology axis out of range and took the daemon down; the request
		// below shows it still answers.
		{Spec: "kuttenmoses", Ns: []int{16}, Seeds: []uint64{1}, Topos: []string{"ring"},
			Start: math.MaxInt, Count: 1},
	} {
		if _, err := c.Chunk(ctx(t), bad); err == nil {
			t.Errorf("chunk %+v accepted", bad)
		} else if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != 400 {
			t.Errorf("chunk %+v: got %v, want 400", bad, err)
		}
	}
	if _, err := c.Chunk(ctx(t), client.ChunkRequest{
		Spec: "tradeoff", Ns: []int{32}, Seeds: []uint64{1}, Start: 0, Count: 1,
		Options: client.Options{Params: &client.ParamSpec{K: intp(1)}},
	}); err == nil {
		t.Error("invalid K accepted")
	} else if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != 422 {
		t.Errorf("invalid K: got %v, want 422", err)
	}
}

// TestHealthLoadGauges: /healthz exports the scheduler-facing gauges —
// batch_workers always, queue_depth/active_jobs tracking load.
func TestHealthLoadGauges(t *testing.T) {
	c, _ := newTestDaemon(t, Config{Workers: 1, BatchWorkers: 2})
	h, err := c.Health(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if h.BatchWorkers != 2 || h.QueueDepth != 0 || h.ActiveJobs != 0 {
		t.Fatalf("idle gauges %+v", h)
	}
	// A blocker on the single worker plus one queued job: active_jobs and
	// queue_depth must both read ≥ 1 while the blocker runs.
	blocker, err := c.SubmitBatch(ctx(t), client.BatchRequest{
		Spec: "tradeoff", Ns: []int{2048}, SeedCount: 64, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The single worker takes the blocker asynchronously: wait until it
	// runs (or already drained), so the next job is sure to queue behind it.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		b, err := c.Job(ctx(t), blocker.ID)
		if err != nil {
			t.Fatal(err)
		}
		if b.Job.State == "running" || b.Job.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("blocker never started: %+v", b.Job)
		}
	}
	if _, err := c.Submit(ctx(t), client.RunRequest{Spec: "tradeoff"}); err != nil {
		t.Fatal(err)
	}
	h, err = c.Health(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if h.ActiveJobs < 1 || h.QueueDepth < 1 {
		// Legitimate only if the blocker already drained.
		if b, berr := c.Job(ctx(t), blocker.ID); berr != nil || !b.Job.Terminal() {
			t.Fatalf("loaded gauges %+v (blocker %+v)", h, b)
		}
	}
	if err := c.Cancel(ctx(t), blocker.ID); err != nil {
		t.Fatal(err)
	}
	// Default BatchWorkers reports the effective value, never zero.
	c2, _ := newTestDaemon(t, Config{})
	if h, err := c2.Health(ctx(t)); err != nil || h.BatchWorkers < 1 {
		t.Fatalf("default batch_workers %+v err=%v", h, err)
	}
}
