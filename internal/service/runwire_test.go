package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cliquelect/elect"
	"cliquelect/elect/client"
	"cliquelect/internal/resultcache"
)

// newCachedServer mounts a daemon with a result cache on a test server.
func newCachedServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Cache = resultcache.New()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts.URL
}

// post sends req as a raw POST to route and returns the reply body, its job
// and whether the reply was spliced. Replies here are all larger than the
// 2 KiB net/http buffers before it picks a framing, so a writeJSON reply
// would go out chunked while the splice announces its Content-Length.
func post(t *testing.T, url, route string, req any) ([]byte, string, bool) {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+route, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, Content-Type %q: %s", resp.StatusCode, resp.Header.Get("Content-Type"), body)
	}
	if len(body) <= 2048 {
		t.Fatalf("a %d-byte reply is too small to tell the writers apart", len(body))
	}
	return body, resp.Header.Get("X-Job-Id"), resp.ContentLength == int64(len(body))
}

// writeJSONBody is what writeJSON writes for v.
func writeJSONBody(v any) []byte {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, v)
	return rec.Body.Bytes()
}

// finished waits for job id and returns its wire status.
func finished(t *testing.T, srv *Server, id string) client.JobStatus {
	t.Helper()
	job, ok := srv.mgr.Get(id)
	if !ok {
		t.Fatalf("job %q unknown", id)
	}
	<-job.Done()
	return status(job)
}

// TestRunReplyMatchesWriteJSON is the differential test of the /v1/run
// reply: for misses, hits and uncached runs of every serving spec, and for
// round-traced, faulted and uncacheable (adaptive-adversary) runs, the
// reply is spliced and byte for byte what writeJSON writes for the job's
// status and the Result elect.Run computes for the same request.
func TestRunReplyMatchesWriteJSON(t *testing.T) {
	srv, url := newCachedServer(t, Config{})
	reqs := map[string]client.RunRequest{
		"tradeoff":      {Spec: "tradeoff", N: 256, Seed: 3, Options: client.Options{Params: &client.ParamSpec{K: intp(4)}}},
		"afekgafni":     {Spec: "afekgafni", N: 256, Seed: 3},
		"asynctradeoff": {Spec: "asynctradeoff", N: 256, Seed: 3},
		"roundtrace":    {Spec: "tradeoff", N: 256, Seed: 4, Options: client.Options{RoundTrace: true}},
		"faulted":       {Spec: "asynctradeoff", N: 256, Seed: 5, Options: client.Options{Faults: "crash=0.25"}},
		"adaptive":      {Spec: "asynctradeoff", N: 256, Seed: 5, Options: client.Options{Faults: "adaptive=1"}},
	}
	// An adaptive adversary makes a run uncacheable: its repeat misses too.
	uncacheable := map[string]bool{"adaptive": true}
	for name, req := range reqs {
		spec, opts, err := req.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		res, err := elect.Run(spec, opts...)
		if err != nil {
			t.Fatal(err)
		}
		nocache := req
		nocache.NoCache = true
		for _, pass := range []struct {
			name string
			req  client.RunRequest
			hit  bool
		}{
			{"miss", req, false},
			{"hit", req, !uncacheable[name]},
			{"no_cache", nocache, false},
		} {
			body, id, spliced := post(t, url, "/v1/run", pass.req)
			st := finished(t, srv, id)
			if want := writeJSONBody(client.RunResponse{Job: st, Result: &res, CacheHit: st.CacheHit}); !bytes.Equal(body, want) {
				t.Fatalf("%s/%s: reply differs from writeJSON's:\n got %s\nwant %s", name, pass.name, body, want)
			}
			if st.CacheHit != pass.hit {
				t.Fatalf("%s/%s: cache_hit %v, want %v", name, pass.name, st.CacheHit, pass.hit)
			}
			if !spliced {
				t.Fatalf("%s/%s: reply not spliced", name, pass.name)
			}
		}
	}
}

// TestRunReplyPlantedBytes plants a cache entry that decodes but is not
// canonical (2.5E+3 where EncodeResult writes 2500): the job re-encodes
// the hit's Result, and the spliced reply is writeJSON's for the Result
// the planted bytes decode to.
func TestRunReplyPlantedBytes(t *testing.T) {
	cache := resultcache.New()
	srv := New(Config{Cache: cache})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	req := client.RunRequest{Spec: "tradeoff", N: 256, Seed: 8}
	spec, opts, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	key, err := elect.Fingerprint(spec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := elect.Run(spec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := elect.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	planted := bytes.Replace(canonical, []byte(`"time_units":0,`), []byte(`"time_units":2.5E+3,`), 1)
	if bytes.Equal(planted, canonical) {
		t.Fatalf("no time_units to plant in %s", canonical)
	}
	cache.Put(key, planted)
	hit, err := elect.DecodeResult(planted)
	if err != nil {
		t.Fatal(err)
	}

	body, id, spliced := post(t, ts.URL, "/v1/run", req)
	st := finished(t, srv, id)
	if want := writeJSONBody(client.RunResponse{Job: st, Result: &hit, CacheHit: st.CacheHit}); !bytes.Equal(body, want) {
		t.Fatalf("planted hit differs from writeJSON's:\n got %s\nwant %s", body, want)
	}
	if !spliced {
		t.Fatal("the planted hit's reply was not spliced")
	}
	if !strings.Contains(string(body), `"time_units":2500,`) || !st.CacheHit {
		t.Fatalf("planted hit was not served re-encoded from the cache: %s", body)
	}
}

// TestConcurrentRunHitsShareBytes sends concurrent /v1/run hits on one
// fingerprint. Every hit is served from the bytes the cache holds, without
// a copy, so every reply's result must be byte-identical to the first
// reply's; under -race, any writer to those shared bytes is a data race.
func TestConcurrentRunHitsShareBytes(t *testing.T) {
	_, url := newCachedServer(t, Config{})
	req := client.RunRequest{Spec: "tradeoff", N: 512, Seed: 9, Options: client.Options{Params: &client.ParamSpec{K: intp(4)}}}
	type reply struct {
		Result   json.RawMessage `json:"result"`
		CacheHit bool            `json:"cache_hit"`
	}
	var first reply
	body, _, _ := post(t, url, "/v1/run", req)
	if err := json.Unmarshal(body, &first); err != nil || first.CacheHit {
		t.Fatalf("first reply: cache_hit %v, err %v", first.CacheHit, err)
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	const callers, calls = 8, 16
	var wg sync.WaitGroup
	errs := make(chan error, callers*calls)
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range calls {
				resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(data))
				if err != nil {
					errs <- err
					return
				}
				var got reply
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				switch {
				case err != nil:
					errs <- err
				case !got.CacheHit:
					errs <- fmt.Errorf("a repeat of the run missed the cache")
				case !bytes.Equal(got.Result, first.Result):
					errs <- fmt.Errorf("hit result differs from the first reply's:\n got %s\nwant %s", got.Result, first.Result)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestBatchReplyMatchesWriteJSON is the differential test of the
// /v1/batch reply: for misses, hits and uncached batches of plain,
// topology-swept, round-traced and faulted grids, the reply is spliced and
// byte for byte what writeJSON writes for the job's status and the
// BatchResult elect.RunMany computes for the same request.
func TestBatchReplyMatchesWriteJSON(t *testing.T) {
	srv, url := newCachedServer(t, Config{})
	reqs := map[string]client.BatchRequest{
		"tradeoff": {Spec: "tradeoff", Ns: []int{64, 128}, SeedCount: 3,
			Options: client.Options{Params: &client.ParamSpec{K: intp(4)}}},
		"topology":   {Spec: "kuttenmoses", Ns: []int{16, 32}, Seeds: []uint64{4, 5}, Topos: []string{"ring", "torus"}},
		"roundtrace": {Spec: "tradeoff", Ns: []int{64}, Seeds: []uint64{6, 7}, Options: client.Options{RoundTrace: true}},
		"faulted":    {Spec: "asynctradeoff", Ns: []int{64}, SeedCount: 4, Options: client.Options{Faults: "crash=0.25"}},
	}
	for name, req := range reqs {
		spec, batch, err := req.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		res, err := elect.RunMany(spec, batch)
		if err != nil {
			t.Fatal(err)
		}
		nocache := req
		nocache.NoCache = true
		for _, pass := range []struct {
			name string
			req  client.BatchRequest
		}{
			{"miss", req},
			{"hit", req},
			{"no_cache", nocache},
		} {
			body, id, spliced := post(t, url, "/v1/batch", pass.req)
			st := finished(t, srv, id)
			if want := writeJSONBody(client.BatchResponse{Job: st, Result: res}); !bytes.Equal(body, want) {
				t.Fatalf("%s/%s: reply differs from writeJSON's:\n got %s\nwant %s", name, pass.name, body, want)
			}
			if !spliced {
				t.Fatalf("%s/%s: reply not spliced", name, pass.name)
			}
		}
	}
}

// getJob sends GET /v1/jobs/{id} and returns the reply body, failing
// unless it is a 200 announcing its Content-Length.
func getJob(t *testing.T, url, id string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(body)) {
		t.Fatalf("GET job: status %d, Content-Length %d for %d bytes: %s",
			resp.StatusCode, resp.ContentLength, len(body), body)
	}
	return body
}

// postAsync submits req to route asynchronously and returns its job id.
func postAsync(t *testing.T, url, route string, req any) string {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+route, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async POST %s: status %d", route, resp.StatusCode)
	}
	return resp.Header.Get("X-Job-Id")
}

// TestJobReplyAfterRun: GET /v1/jobs/{id} of a finished async run or batch
// is byte for byte writeJSON's JobResponse for the result elect.Run or
// elect.RunMany computes, on a miss and on a hit, while a synchronous
// run's reply took its result, so its GET carries the status only.
func TestJobReplyAfterRun(t *testing.T) {
	srv, url := newCachedServer(t, Config{})
	run := client.RunRequest{Spec: "afekgafni", N: 256, Seed: 2}
	spec, opts, err := run.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := elect.Run(spec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	batch := client.BatchRequest{Spec: "tradeoff", Ns: []int{64}, SeedCount: 3}
	bspec, b, err := batch.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	bres, err := elect.RunMany(bspec, b)
	if err != nil {
		t.Fatal(err)
	}
	asyncRun, asyncBatch := run, batch
	asyncRun.Async, asyncBatch.Async = true, true
	for _, pass := range []string{"miss", "hit"} {
		id := postAsync(t, url, "/v1/run", asyncRun)
		st := finished(t, srv, id)
		want := writeJSONBody(client.JobResponse{Job: st, Result: &res, CacheHit: st.CacheHit})
		if got := getJob(t, url, id); !bytes.Equal(got, want) {
			t.Fatalf("%s: GET async run:\n got %s\nwant %s", pass, got, want)
		}

		id = postAsync(t, url, "/v1/batch", asyncBatch)
		st = finished(t, srv, id)
		want = writeJSONBody(client.JobResponse{Job: st, Batch: bres})
		if got := getJob(t, url, id); !bytes.Equal(got, want) {
			t.Fatalf("%s: GET async batch:\n got %s\nwant %s", pass, got, want)
		}

		_, id, _ = post(t, url, "/v1/run", run)
		st = finished(t, srv, id)
		want = writeJSONBody(client.JobResponse{Job: st, CacheHit: st.CacheHit})
		if got := getJob(t, url, id); !bytes.Equal(got, want) {
			t.Fatalf("%s: GET sync run:\n got %s\nwant %s", pass, got, want)
		}
	}
}

// TestSyncReplyKeepsNothing: once a synchronous POST /v1/run, /v1/batch or
// /v1/chunk has answered, the job table holds none of its result bytes.
func TestSyncReplyKeepsNothing(t *testing.T) {
	srv, url := newCachedServer(t, Config{})
	for route, req := range map[string]any{
		"/v1/run":   client.RunRequest{Spec: "tradeoff", N: 256, Seed: 1},
		"/v1/batch": client.BatchRequest{Spec: "tradeoff", Ns: []int{64}, SeedCount: 3},
		"/v1/chunk": client.ChunkRequest{Spec: "tradeoff", Ns: []int{64}, Seeds: []uint64{1, 2, 3}, Start: 0, Count: 3},
	} {
		_, id, _ := post(t, url, route, req)
		if st := finished(t, srv, id); st.State != "done" {
			t.Fatalf("%s: job %+v", route, st)
		}
		job, _ := srv.mgr.Get(id)
		if got := job.Result(); got != nil {
			t.Fatalf("%s: the answered job kept %d result bytes", route, len(got))
		}
	}
}

// TestSyncChunkReplyKeepsNoCells: once a synchronous POST /v1/chunk has
// answered with its cells, on a traced or untraced daemon and on a miss, a
// hit or without the cache, the job table holds none of them. Result never
// reads a chunk's cells, so this takes them: a take after the reply must
// find nothing.
func TestSyncChunkReplyKeepsNoCells(t *testing.T) {
	req := client.ChunkRequest{Spec: "tradeoff", Ns: []int{64}, Seeds: []uint64{1, 2, 3}, Start: 0, Count: 3}
	nocache := req
	nocache.NoCache = true
	for _, traced := range []bool{false, true} {
		cfg := Config{TraceSpans: -1}
		if traced {
			cfg.TraceSpans = 0
		}
		srv, url := newCachedServer(t, cfg)
		for _, pass := range []struct {
			name string
			req  client.ChunkRequest
		}{
			{"miss", req},
			{"hit", req},
			{"no_cache", nocache},
		} {
			label := fmt.Sprintf("traced=%v %s", traced, pass.name)
			body, id, _ := post(t, url, "/v1/chunk", pass.req)
			var got client.ChunkResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if len(got.Results) != req.Count {
				t.Fatalf("%s: reply carried %d cells, want %d", label, len(got.Results), req.Count)
			}
			job, ok := srv.mgr.Get(id)
			if !ok {
				t.Fatalf("%s: job %q not in the table", label, id)
			}
			if cells := job.TakeCells(); cells != nil {
				t.Fatalf("%s: the answered job kept %d cells", label, len(cells))
			}
		}
	}
}

// discardWriter is a ResponseWriter that drops the body.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w discardWriter) WriteHeader(int)             {}

// BenchmarkRunResponseEncode writes a cache-hit POST /v1/run reply for
// tradeoff k=4 at n=512: spliced from the cached bytes, and through
// writeJSON, which re-encodes and compacts the Result.
func BenchmarkRunResponseEncode(b *testing.B) {
	spec, err := elect.Lookup("tradeoff")
	if err != nil {
		b.Fatal(err)
	}
	res, err := elect.Run(spec, elect.WithN(512), elect.WithParams(elect.Params{K: 4}))
	if err != nil {
		b.Fatal(err)
	}
	wire, err := elect.EncodeResult(res)
	if err != nil {
		b.Fatal(err)
	}
	st := client.JobStatus{ID: "j0123456789ab", Kind: "run", Spec: "tradeoff", State: "done", Done: 1, Total: 1, CacheHit: true}
	w := discardWriter{h: http.Header{}}
	b.Run("splice", func(b *testing.B) {
		b.SetBytes(int64(len(wire)))
		b.ReportAllocs()
		for b.Loop() {
			writeJobReply(w, st, "result", wire, tailHit)
		}
	})
	b.Run("writeJSON", func(b *testing.B) {
		b.SetBytes(int64(len(wire)))
		b.ReportAllocs()
		for b.Loop() {
			writeJSON(w, http.StatusOK, client.RunResponse{Job: st, Result: &res, CacheHit: true})
		}
	})
}

// TestChunkReplyMatchesWriteJSON is the differential test of the
// /v1/chunk reply: on traced and untraced daemons, for misses, hits and
// uncached chunks of plain, topology-swept, round-traced and uncacheable
// (adaptive-adversary) grids, the reply is spliced and byte for byte what
// writeJSON writes for the same results (run locally with elect.RunRange)
// and spans (as the reply carries them).
func TestChunkReplyMatchesWriteJSON(t *testing.T) {
	reqs := map[string]client.ChunkRequest{
		"tradeoff": {Spec: "tradeoff", Ns: []int{64, 128}, Seeds: []uint64{1, 2, 3}, Start: 1, Count: 4,
			Options: client.Options{Params: &client.ParamSpec{K: intp(4)}}},
		"topology": {Spec: "kuttenmoses", Ns: []int{16, 32}, Seeds: []uint64{4, 5}, Topos: []string{"ring", "torus"},
			Start: 2, Count: 5},
		"roundtrace": {Spec: "tradeoff", Ns: []int{64}, Seeds: []uint64{6, 7}, Start: 0, Count: 2,
			Options: client.Options{RoundTrace: true}},
		"adaptive": {Spec: "asynctradeoff", Ns: []int{64, 128}, Seeds: []uint64{1, 2}, Start: 1, Count: 3,
			Options: client.Options{Faults: "adaptive=1"}},
	}
	for _, traced := range []bool{false, true} {
		cfg := Config{TraceSpans: -1}
		if traced {
			cfg.TraceSpans = 0
		}
		_, url := newCachedServer(t, cfg)
		for name, req := range reqs {
			spec, batch, err := req.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			results, _, err := elect.RunRange(spec, batch, req.Start, req.Count)
			if err != nil {
				t.Fatal(err)
			}
			nocache := req
			nocache.NoCache = true
			for _, pass := range []struct {
				name string
				req  client.ChunkRequest
			}{
				{"miss", req},
				{"hit", req},
				{"no_cache", nocache},
			} {
				label := fmt.Sprintf("traced=%v %s/%s", traced, name, pass.name)
				body, _, spliced := post(t, url, "/v1/chunk", pass.req)
				var got client.ChunkResponse
				if err := json.Unmarshal(body, &got); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if traced != (len(got.Spans) == 3) {
					t.Fatalf("%s: reply carries %d spans", label, len(got.Spans))
				}
				want := writeJSONBody(client.ChunkResponse{Results: results, Spans: got.Spans})
				if !bytes.Equal(body, want) {
					t.Fatalf("%s: reply differs from writeJSON's:\n got %s\nwant %s", label, body, want)
				}
				if !spliced {
					t.Fatalf("%s: reply not spliced", label)
				}
			}
		}
	}
}

// BenchmarkChunkResponseEncode writes an 8-result POST /v1/chunk reply for
// tradeoff k=4 at n=128: spliced from the job's cells, and through
// writeJSON, which re-encodes and compacts every Result.
func BenchmarkChunkResponseEncode(b *testing.B) {
	spec, err := elect.Lookup("tradeoff")
	if err != nil {
		b.Fatal(err)
	}
	results, _, err := elect.RunRange(spec, elect.Batch{
		Ns: []int{128}, Seeds: elect.Seeds(1, 8),
		Options: []elect.Option{elect.WithParams(elect.Params{K: 4, D: 2, G: 1, Eps: 1.0 / 16})},
	}, 0, 8)
	if err != nil {
		b.Fatal(err)
	}
	wire, err := json.Marshal(results)
	if err != nil {
		b.Fatal(err)
	}
	cells := make([][]byte, len(results))
	for i, res := range results {
		if cells[i], err = elect.EncodeResult(res); err != nil {
			b.Fatal(err)
		}
	}
	w := discardWriter{h: http.Header{}}
	b.Run("splice", func(b *testing.B) {
		b.SetBytes(int64(len(wire)))
		b.ReportAllocs()
		for b.Loop() {
			writeSpliced(w, chunkHead, nil, tailEnd, cells...)
		}
	})
	b.Run("writeJSON", func(b *testing.B) {
		b.SetBytes(int64(len(wire)))
		b.ReportAllocs()
		for b.Loop() {
			writeJSON(w, http.StatusOK, client.ChunkResponse{Results: results})
		}
	})
}
