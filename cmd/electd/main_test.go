package main

import (
	"bytes"
	"context"
	"io"
	"testing"
	"time"

	"cliquelect/elect"
	"cliquelect/elect/client"
)

// startDaemon boots the real daemon (flag parsing, TCP listener, HTTP
// server) on an ephemeral port and returns a client against it.
func startDaemon(t *testing.T, args ...string) *client.Client {
	t.Helper()
	ready := make(chan string, 1)
	stop := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(append([]string{"-addr", "127.0.0.1:0", "-quiet"}, args...),
			io.Discard, ready, stop)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errCh:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never came up")
	}
	t.Cleanup(func() {
		close(stop)
		select {
		case err := <-errCh:
			if err != nil {
				t.Errorf("daemon shutdown: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Error("daemon never shut down")
		}
	})
	return client.New("http://" + addr)
}

// TestElectdEndToEnd is the serving-layer acceptance test and the CI smoke:
// it starts the daemon, drives it through the Go client, and proves that a
// repeated deterministic run is served from the cache — hit counter
// incremented, bytes identical to both the cold run and an uncached run.
func TestElectdEndToEnd(t *testing.T) {
	c := startDaemon(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	if h, err := c.Health(ctx); err != nil || !h.OK {
		t.Fatalf("healthz: %+v err=%v", h, err)
	} else if h.BatchWorkers < 1 || h.QueueDepth != 0 || h.ActiveJobs != 0 {
		// The load gauges /healthz reports must be present (an idle daemon
		// reports its effective parallelism and empty queues).
		t.Fatalf("healthz load gauges: %+v", h)
	}
	specs, err := c.Specs(ctx)
	if err != nil || len(specs) == 0 {
		t.Fatalf("specs: %d err=%v", len(specs), err)
	}

	req := client.RunRequest{
		Spec: "tradeoff", N: 1024, Seed: 7,
		Options: client.Options{Params: &client.ParamSpec{K: intp(4)}},
	}
	// Cold: computed, stored.
	cold, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit || cold.Result == nil || !cold.Result.OK {
		t.Fatalf("cold run: hit=%v result=%+v", cold.CacheHit, cold.Result)
	}
	healthBefore, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Warm: the identical logical run must come from the cache.
	warm, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("repeated deterministic run was not served from cache")
	}
	healthAfter, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if healthAfter.Cache == nil || healthBefore.Cache == nil ||
		healthAfter.Cache.Hits <= healthBefore.Cache.Hits {
		t.Fatalf("cache hit counter did not increment: %+v -> %+v",
			healthBefore.Cache, healthAfter.Cache)
	}
	// Uncached: same request with the cache bypassed.
	bypass := req
	bypass.NoCache = true
	uncached, err := c.Run(ctx, bypass)
	if err != nil {
		t.Fatal(err)
	}
	if uncached.CacheHit {
		t.Fatal("no_cache run reported a cache hit")
	}
	// All three answers must be byte-identical on the stable codec.
	coldB, _ := elect.EncodeResult(*cold.Result)
	warmB, _ := elect.EncodeResult(*warm.Result)
	uncachedB, _ := elect.EncodeResult(*uncached.Result)
	if !bytes.Equal(coldB, warmB) {
		t.Errorf("cached replay differs from cold run:\n %s\n %s", coldB, warmB)
	}
	if !bytes.Equal(coldB, uncachedB) {
		t.Errorf("uncached run differs from cold run:\n %s\n %s", coldB, uncachedB)
	}

	// Async batch with SSE progress, exercising the full job lifecycle.
	st, err := c.SubmitBatch(ctx, client.BatchRequest{
		Spec: "tradeoff", Ns: []int{64, 128}, SeedBase: 1, SeedCount: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var progressed bool
	final, err := c.Stream(ctx, st.ID, func(s client.JobStatus) { progressed = true })
	if err != nil {
		t.Fatal(err)
	}
	if !progressed || final.Job.State != "done" || final.Batch == nil || len(final.Batch.Runs) != 8 {
		t.Fatalf("batch over SSE: progressed=%v final=%+v", progressed, final.Job)
	}
}

// TestElectdCacheDirPersists proves the disk tier: a second daemon over the
// same -cache-dir serves the first daemon's run as a hit.
func TestElectdCacheDirPersists(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	req := client.RunRequest{Spec: "tradeoff", N: 256, Seed: 3}

	first := startDaemon(t, "-cache-dir", dir)
	cold, err := first.Run(ctx, req)
	if err != nil || cold.CacheHit {
		t.Fatalf("cold: %+v err=%v", cold, err)
	}

	second := startDaemon(t, "-cache-dir", dir)
	warm, err := second.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("fresh daemon over the same cache-dir missed")
	}
	a, _ := elect.EncodeResult(*cold.Result)
	b, _ := elect.EncodeResult(*warm.Result)
	if !bytes.Equal(a, b) {
		t.Fatal("cross-process replay not byte-identical")
	}
}

func TestElectdFlagErrors(t *testing.T) {
	if err := run([]string{"-badflag"}, io.Discard, nil, nil); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-addr", "256.256.256.256:99999"}, io.Discard, nil, nil); err == nil {
		t.Fatal("bad address accepted")
	}
}

func intp(v int) *int { return &v }
