package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cliquelect/elect"
	"cliquelect/elect/client"
	"cliquelect/internal/resultcache"
)

// postRun sends a raw POST /v1/run and returns the reply body, its job and
// whether the reply was spliced. Replies here are all larger than the 2 KiB
// net/http buffers before it picks a framing, so writeJSON's go out chunked
// while the splice announces its Content-Length.
func postRun(t *testing.T, url string, req client.RunRequest) ([]byte, string, bool) {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(data))
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

// wantRunBody is the reply encoding/json writes for the finished run job.
func wantRunBody(t *testing.T, srv *Server, id string) []byte {
	t.Helper()
	job, ok := srv.mgr.Get(id)
	if !ok {
		t.Fatalf("job %q unknown", id)
	}
	res, ok := job.Result()
	if !ok {
		t.Fatalf("job %q has no result", id)
	}
	st := status(job)
	return writeJSONBody(client.RunResponse{Job: st, Result: &res, CacheHit: st.CacheHit})
}

// TestRunReplyMatchesWriteJSON is the differential test of the spliced
// /v1/run writer: for misses, hits and uncached runs of every serving
// spec, and for round-traced and faulted runs, the reply is byte for byte
// the one writeJSON writes for the same job. Every cached reply is spliced
// except a round-traced hit, whose bytes the canonical decoder leaves to
// the reference.
func TestRunReplyMatchesWriteJSON(t *testing.T) {
	srv := New(Config{Cache: resultcache.New()})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	reqs := map[string]client.RunRequest{
		"tradeoff":      {Spec: "tradeoff", N: 256, Seed: 3, Options: client.Options{Params: &client.ParamSpec{K: intp(4)}}},
		"afekgafni":     {Spec: "afekgafni", N: 256, Seed: 3},
		"asynctradeoff": {Spec: "asynctradeoff", N: 256, Seed: 3},
		"roundtrace":    {Spec: "tradeoff", N: 256, Seed: 4, Options: client.Options{RoundTrace: true}},
		"faulted":       {Spec: "asynctradeoff", N: 256, Seed: 5, Options: client.Options{Faults: "crash=0.25"}},
	}
	for name, req := range reqs {
		nocache := req
		nocache.NoCache = true
		for _, pass := range []struct {
			name         string
			req          client.RunRequest
			hit, spliced bool
		}{
			{"miss", req, false, true},
			{"hit", req, true, !req.RoundTrace},
			{"no_cache", nocache, false, false},
		} {
			body, id, spliced := postRun(t, ts.URL, pass.req)
			if want := wantRunBody(t, srv, id); !bytes.Equal(body, want) {
				t.Fatalf("%s/%s: reply differs from writeJSON's:\n got %s\nwant %s", name, pass.name, body, want)
			}
			if hit := bytes.HasSuffix(body, []byte(`"cache_hit":true}`+"\n")); hit != pass.hit {
				t.Fatalf("%s/%s: cache_hit %v, want %v", name, pass.name, hit, pass.hit)
			}
			if spliced != pass.spliced {
				t.Fatalf("%s/%s: spliced %v, want %v", name, pass.name, spliced, pass.spliced)
			}
		}
	}
}

// TestRunReplyPlantedBytes plants a cache entry that decodes but is not
// canonical (2.5E+3 where EncodeResult writes 2500): the hit must not be
// spliced, and its reply must still be writeJSON's.
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

	body, id, spliced := postRun(t, ts.URL, req)
	if want := wantRunBody(t, srv, id); !bytes.Equal(body, want) {
		t.Fatalf("planted hit differs from writeJSON's:\n got %s\nwant %s", body, want)
	}
	if spliced {
		t.Fatal("the planted bytes were spliced")
	}
	if !strings.Contains(string(body), `"time_units":2500,`) || !strings.Contains(string(body), `"cache_hit":true}`) {
		t.Fatalf("planted hit was not served re-encoded from the cache: %s", body)
	}
}

// TestJobReplyAfterRun: GET /v1/jobs/{id} for a run whose reply took the
// job's wire bytes still answers from the decoded Result, exactly as
// writeJSON encodes the job.
func TestJobReplyAfterRun(t *testing.T) {
	srv := New(Config{Cache: resultcache.New()})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	req := client.RunRequest{Spec: "afekgafni", N: 256, Seed: 2}
	for _, pass := range []string{"miss", "hit"} {
		_, id, _ := postRun(t, ts.URL, req)
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		job, _ := srv.mgr.Get(id)
		res, _ := job.Result()
		st := status(job)
		want := writeJSONBody(client.JobResponse{Job: st, Result: &res, CacheHit: st.CacheHit})
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("%s: GET job status %d:\n got %s\nwant %s", pass, resp.StatusCode, body, want)
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
			writeRunWire(w, st, wire)
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

// postChunk sends a raw POST /v1/chunk and returns the reply body and
// whether the reply was spliced (announced its Content-Length).
func postChunk(t *testing.T, url string, req client.ChunkRequest) ([]byte, bool) {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/chunk", "application/json", bytes.NewReader(data))
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
	return body, resp.ContentLength == int64(len(body))
}

// TestChunkReplyMatchesWriteJSON is the differential test of the spliced
// /v1/chunk writer: on traced and untraced daemons, for misses, hits and
// uncached chunks of plain, topology-swept and round-traced grids, the
// reply is byte for byte what writeJSON writes for the same results (run
// locally with elect.RunRange) and spans (as the reply carries them).
// Every cached reply is spliced except one holding a round-traced hit,
// whose bytes the canonical decoder leaves to the reference; no_cache
// replies always fall back.
func TestChunkReplyMatchesWriteJSON(t *testing.T) {
	reqs := map[string]client.ChunkRequest{
		"tradeoff": {Spec: "tradeoff", Ns: []int{64, 128}, Seeds: []uint64{1, 2, 3}, Start: 1, Count: 4,
			Options: client.Options{Params: &client.ParamSpec{K: intp(4)}}},
		"topology": {Spec: "kuttenmoses", Ns: []int{16, 32}, Seeds: []uint64{4, 5}, Topos: []string{"ring", "torus"},
			Start: 2, Count: 5},
		"roundtrace": {Spec: "tradeoff", Ns: []int{64}, Seeds: []uint64{6, 7}, Start: 0, Count: 2,
			Options: client.Options{RoundTrace: true}},
	}
	for _, traced := range []bool{false, true} {
		cfg := Config{Cache: resultcache.New(), TraceSpans: -1}
		if traced {
			cfg.TraceSpans = 0
		}
		srv := New(cfg)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
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
				name    string
				req     client.ChunkRequest
				spliced bool
			}{
				{"miss", req, true},
				{"hit", req, !req.RoundTrace},
				{"no_cache", nocache, false},
			} {
				label := fmt.Sprintf("traced=%v %s/%s", traced, name, pass.name)
				body, spliced := postChunk(t, ts.URL, pass.req)
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
				if spliced != pass.spliced {
					t.Fatalf("%s: spliced %v, want %v", label, spliced, pass.spliced)
				}
			}
		}
	}
}

// TestChunkJobKeepsNothing: once POST /v1/chunk has answered, the job table
// holds neither the chunk's Results nor their bytes.
func TestChunkJobKeepsNothing(t *testing.T) {
	srv := New(Config{Cache: resultcache.New()})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	postChunk(t, ts.URL, client.ChunkRequest{Spec: "tradeoff", Ns: []int{64}, Seeds: []uint64{1, 2, 3}, Start: 0, Count: 3})
	jobs := srv.mgr.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("%d jobs, want 1", len(jobs))
	}
	if res, wire, ok := jobs[0].TakeChunk(); ok || res != nil || wire != nil {
		t.Fatalf("the answered chunk job kept %d results and %d wires", len(res), len(wire))
	}
}

// BenchmarkChunkResponseEncode writes an 8-result POST /v1/chunk reply for
// tradeoff k=4 at n=128: spliced from the cached bytes, and through
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
	wire := make([][]byte, len(results))
	size := 0
	for i, res := range results {
		if wire[i], err = elect.EncodeResult(res); err != nil {
			b.Fatal(err)
		}
		size += len(wire[i])
	}
	w := discardWriter{h: http.Header{}}
	b.Run("splice", func(b *testing.B) {
		b.SetBytes(int64(size))
		b.ReportAllocs()
		for b.Loop() {
			writeChunkWire(w, wire, nil)
		}
	})
	b.Run("writeJSON", func(b *testing.B) {
		b.SetBytes(int64(size))
		b.ReportAllocs()
		for b.Loop() {
			writeJSON(w, http.StatusOK, client.ChunkResponse{Results: results})
		}
	})
}
