package service

import (
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"cliquelect/elect/client"
)

// TestAdmissionLimits posts bodies of a few dozen bytes that ask for
// gigabytes: a seed_count expanded into 400M seeds, runs of 20M nodes
// (one on the live engine, which starts a goroutine per node), a size
// past the limit in a batch's or a chunk's ns axis, a batch grid past the
// cell limit and a chunk whose range is. Each must be answered 400 before
// anything of its size is allocated or queued: the heap allocated around
// each request stays small, no job is created, and the daemon answers
// afterwards. A chunk bounds its range, not its grid: a few cells of a
// grid past the cell limit still run.
func TestAdmissionLimits(t *testing.T) {
	srv, url := newCachedServer(t, Config{})
	// 300 sizes by 300 seeds: 90,000 cells, past the cell limit, in a body
	// far below the 1 MiB body limit.
	axis := strings.TrimSuffix(strings.Repeat("64,", 300), ",")
	grid := `"ns":[` + axis + `],"seeds":[` + axis + `]`
	for _, tc := range []struct{ name, route, body string }{
		{"batch seed_count", "/v1/batch", `{"spec":"tradeoff","seed_count":400000000}`},
		{"run n", "/v1/run", `{"spec":"afekgafni","n":20000000,"seed":1}`},
		{"live run n", "/v1/run", `{"spec":"asynctradeoff","n":20000000,"seed":1,"engine":"live"}`},
		{"batch ns", "/v1/batch", `{"spec":"tradeoff","ns":[64,20000000],"seeds":[1]}`},
		{"batch cells", "/v1/batch", `{"spec":"kuttenmoses","topos":["ring","torus"],"seed_count":40000}`},
		{"chunk ns", "/v1/chunk", `{"spec":"tradeoff","ns":[20000000],"seeds":[1],"start":0,"count":1}`},
		{"batch grid", "/v1/batch", `{"spec":"tradeoff",` + grid + `}`},
		{"chunk range", "/v1/chunk", `{"spec":"tradeoff",` + grid + `,"start":0,"count":70000}`},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := http.Post(url+tc.route, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		runtime.ReadMemStats(&after)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, resp.StatusCode, body)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 512<<10 {
			t.Errorf("%s: the request allocated %d bytes before its 400", tc.name, grew)
		}
	}
	if jobs := srv.mgr.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected requests left %d jobs", len(jobs))
	}
	c := client.New(url)
	if _, err := c.Run(ctx(t), client.RunRequest{Spec: "tradeoff", N: 64, Seed: 1}); err != nil {
		t.Fatalf("the daemon does not answer after the rejected requests: %v", err)
	}
	ns, seeds := make([]int, 300), make([]uint64, 300)
	for i := range ns {
		ns[i], seeds[i] = 64, 64
	}
	resp, err := c.Chunk(ctx(t), client.ChunkRequest{Spec: "tradeoff", Ns: ns, Seeds: seeds, Start: 89_998, Count: 2})
	if err != nil {
		t.Fatalf("a 2-cell chunk of a 90,000-cell grid: %v", err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("a 2-cell chunk answered %d results", len(resp.Results))
	}
}
