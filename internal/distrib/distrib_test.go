package distrib_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cliquelect/elect"

	"cliquelect/elect/client"
	. "cliquelect/internal/distrib"
	"cliquelect/internal/obs"
	"cliquelect/internal/resultcache"
	"cliquelect/internal/service"
)

// harness is one electd worker under test: the real service handler behind
// a wrapper that records every chunk request, counts health probes, can
// inject latency, and can start refusing chunks after a set number of
// requests (a worker killed mid-sweep).
type harness struct {
	ts  *httptest.Server
	srv *service.Server

	mu     sync.Mutex
	chunks []Chunk

	probes atomic.Int64 // GET /healthz requests received

	delay     atomic.Int64 // ns slept before serving a chunk
	failAfter atomic.Int64 // chunk requests served before dying; <0 = never
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	h := &harness{srv: service.New(service.Config{})}
	h.failAfter.Store(-1)
	inner := h.srv.Handler()
	h.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			h.probes.Add(1)
		}
		if r.URL.Path == "/v1/chunk" {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			var req client.ChunkRequest
			if json.Unmarshal(body, &req) == nil {
				h.mu.Lock()
				h.chunks = append(h.chunks, Chunk{Start: req.Start, Count: req.Count})
				seen := int64(len(h.chunks))
				h.mu.Unlock()
				if fail := h.failAfter.Load(); fail >= 0 && seen > fail {
					panic(http.ErrAbortHandler) // hang up mid-request, like a killed daemon
				}
			}
			if d := h.delay.Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		h.ts.Close()
		h.srv.Close()
	})
	return h
}

func (h *harness) served() []Chunk {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Chunk(nil), h.chunks...)
}

// newFleet builds a fleet over the harnesses with test-friendly timings.
func newFleet(t *testing.T, cfg Config, hs ...*harness) *Fleet {
	t.Helper()
	for _, h := range hs {
		cfg.Workers = append(cfg.Workers, h.ts.URL)
	}
	if cfg.ClientOptions == nil {
		cfg.ClientOptions = []client.ClientOption{client.WithRetry(2, time.Millisecond)}
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustSpec(t *testing.T, name string) elect.Spec {
	t.Helper()
	spec, err := elect.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// testGrid is the reference configuration every dispatch test sweeps: the
// elect options and the wire options describe the same thing, as the CLIs
// guarantee.
func testGrid() (elect.Batch, client.Options) {
	k := 4
	b := elect.Batch{
		Ns:    []int{16, 32},
		Seeds: elect.Seeds(1, 8),
		Options: []elect.Option{
			elect.WithParams(elect.Params{K: 4, D: 2, G: 1, Eps: 1.0 / 16}),
		},
	}
	wire := client.Options{Params: &client.ParamSpec{K: &k}}
	return b, wire
}

func encodeBatch(t *testing.T, b *elect.BatchResult) []byte {
	t.Helper()
	data, err := elect.EncodeBatchResult(b)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPartition pins Partition on grid axes: it batches cheap cells by
// weight, floored at ceil(total/64) cells and capped at MaxChunkCells.
func TestPartition(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ns     []int
		seeds  int
		chunks int
	}{
		{"default axes", nil, 0, 1},
		// testGrid's sizes: cells far below the budget.
		{"cheap cells share one chunk", []int{16, 32}, 8, 1},
		// n = 1024 weighs 10240, past the budget: one cell per chunk.
		{"heavy cells run alone", []int{1024}, 64, 64},
		// 65536 light cells: the floor ceil(65536/64) = 1024 is the cap.
		{"floor reaches the cap", []int{16}, 64 * 1024, 64},
	} {
		seeds := elect.Seeds(1, tc.seeds)
		if tc.seeds == 0 {
			seeds = nil
		}
		got := Partition(tc.ns, seeds, nil)
		if len(got) != tc.chunks {
			t.Fatalf("%s: %d chunks, want %d", tc.name, len(got), tc.chunks)
		}
		checkCover(t, got, elect.GridSize(tc.ns, seeds, nil))
	}
	// Huge grids clamp to MaxChunkCells: a 2^20-cell grid of light cells
	// is 1024 chunks of exactly that size.
	huge := Partition([]int{16}, elect.Seeds(1, 1<<20), nil)
	if len(huge) != 1024 || huge[0].Count != MaxChunkCells || huge[1023].Count != MaxChunkCells {
		t.Fatalf("2^20-cell grid: %d chunks, first %+v", len(huge), huge[0])
	}
}

// TestFleetMatchesLocal is the heart of the fabric: a grid dispatched to
// two workers merges byte-identically to the same grid run locally.
func TestFleetMatchesLocal(t *testing.T) {
	b, wire := multiChunkGrid()
	spec := mustSpec(t, "tradeoff")
	local, err := elect.RunMany(spec, b)
	if err != nil {
		t.Fatal(err)
	}

	w1, w2 := newHarness(t), newHarness(t)
	fleet := newFleet(t, Config{}, w1, w2)
	remote := b
	remote.Remote = fleet.Runner(wire)
	var progress atomic.Int64
	remote.OnResult = func(done, total int) { progress.Store(int64(done)) }
	got, err := elect.RunMany(spec, remote)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBatch(t, local), encodeBatch(t, got)) {
		t.Fatal("fleet-dispatched grid differs from local RunMany")
	}
	if progress.Load() != 16 {
		t.Fatalf("OnResult reached %d, want 16", progress.Load())
	}
	// Both workers actually participated and the union of served chunks is
	// exactly the partition.
	c1, c2 := w1.served(), w2.served()
	if len(c1) == 0 || len(c2) == 0 {
		t.Fatalf("load not balanced: %d vs %d chunks", len(c1), len(c2))
	}
	assertChunkSet(t, append(c1, c2...), Partition(b.Ns, b.Seeds, nil))
	stats := fleet.Stats()
	if stats.ChunksRetried != 0 || stats.LocalCells != 0 {
		t.Fatalf("healthy fleet reported retries/local cells: %+v", stats)
	}
	var cells, dispatches int64
	for _, ws := range stats.Workers {
		if !ws.Alive {
			t.Fatalf("worker %s reported dead", ws.URL)
		}
		cells += ws.Cells
		dispatches += ws.Dispatches
		if ws.Failures != 0 || ws.Stragglers != 0 {
			t.Fatalf("healthy worker %s reported failures/stragglers: %+v", ws.URL, ws)
		}
		if ws.Chunks > 0 && (ws.MinLat <= 0 || ws.MaxLat < ws.MinLat) {
			t.Fatalf("worker %s latency envelope %v..%v", ws.URL, ws.MinLat, ws.MaxLat)
		}
	}
	if cells != 16 {
		t.Fatalf("worker cells sum to %d, want 16", cells)
	}
	if want := int64(len(Partition(b.Ns, b.Seeds, nil))); dispatches != want {
		t.Fatalf("dispatch attempts sum to %d, want %d", dispatches, want)
	}
	if stats.HTTPAttempts == 0 || stats.HTTPRetries != 0 {
		t.Fatalf("healthy fleet retry telemetry: %+v", stats)
	}
}

// assertChunkSet verifies got is exactly want as a set (order-free).
func assertChunkSet(t *testing.T, got, want []Chunk) {
	t.Helper()
	sortChunks := func(cs []Chunk) {
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	}
	got = append([]Chunk(nil), got...)
	sortChunks(got)
	sortChunks(want)
	if len(got) != len(want) {
		t.Fatalf("served %d chunks, want %d: %v vs %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("chunk %d: served %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestChunkAssignmentFleetSizeIndependent: the satellite determinism
// property — the same batch shards into the same chunks whether the fleet
// has one worker or three.
func TestChunkAssignmentFleetSizeIndependent(t *testing.T) {
	b, wire := multiChunkGrid()
	spec := mustSpec(t, "tradeoff")

	runWith := func(n int) []Chunk {
		hs := make([]*harness, n)
		for i := range hs {
			hs[i] = newHarness(t)
		}
		fleet := newFleet(t, Config{}, hs...)
		remote := b
		remote.Remote = fleet.Runner(wire)
		if _, err := elect.RunMany(spec, remote); err != nil {
			t.Fatal(err)
		}
		var all []Chunk
		for _, h := range hs {
			all = append(all, h.served()...)
		}
		return all
	}
	one, three := runWith(1), runWith(3)
	want := Partition(b.Ns, b.Seeds, b.Topos)
	if len(want) < 3 {
		t.Fatalf("the partition has %d chunks; the test needs several", len(want))
	}
	assertChunkSet(t, one, want)
	assertChunkSet(t, three, want)
}

// multiChunkGrid is testGrid with its larger size raised to n = 256, whose
// cells weigh half the chunk budget each: the partition shards it into four
// chunks, so both workers of a two-worker fleet take some.
func multiChunkGrid() (elect.Batch, client.Options) {
	b, wire := testGrid()
	b.Ns = []int{16, 256}
	return b, wire
}

// runFailover runs multiChunkGrid over a two-worker fleet whose victim
// dies after one chunk, and checks that the merged grid is byte-identical to
// a local RunMany with the victim's chunks failed over to the survivor.
func runFailover(t *testing.T) (b elect.Batch, fleet *Fleet, survivor, victim *harness) {
	t.Helper()
	b, wire := multiChunkGrid()
	spec := mustSpec(t, "tradeoff")
	local, err := elect.RunMany(spec, b)
	if err != nil {
		t.Fatal(err)
	}

	survivor, victim = newHarness(t), newHarness(t)
	victim.failAfter.Store(1) // one chunk completes, then the daemon "dies"
	fleet = newFleet(t, Config{}, survivor, victim)
	remote := b
	remote.Remote = fleet.Runner(wire)
	got, err := elect.RunMany(spec, remote)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBatch(t, local), encodeBatch(t, got)) {
		t.Fatal("failover grid differs from local RunMany")
	}
	stats := fleet.Stats()
	if stats.ChunksRetried < 1 || stats.LocalCells != 0 {
		t.Fatalf("want a failover onto the survivor and no local cells: %+v", stats)
	}
	return b, fleet, survivor, victim
}

// TestFleetFailover: a worker killed mid-sweep loses its remaining chunks
// to the survivor, the merged grid stays byte-identical to a local RunMany,
// and only the survivor is left marked alive.
func TestFleetFailover(t *testing.T) {
	_, fleet, survivor, victim := runFailover(t)
	if ws := workerStats(t, fleet, survivor); !ws.Alive || ws.Cells < 1 {
		t.Fatalf("survivor stats %+v", ws)
	}
	if ws := workerStats(t, fleet, victim); ws.Alive {
		t.Fatalf("victim still marked alive: %+v", ws)
	}
}

// TestFleetFailoverDefaultPartition: on the default, weight-shaped
// partition, the chunks asked for across a failover are exactly the
// partition's.
func TestFleetFailoverDefaultPartition(t *testing.T) {
	b, _, survivor, victim := runFailover(t)
	// Every chunk the partition names was asked for, and nothing else; the
	// victim's failed chunk is asked for twice.
	served := append(survivor.served(), victim.served()...)
	want := Partition(b.Ns, b.Seeds, b.Topos)
	for _, c := range served {
		if !slices.Contains(want, c) {
			t.Fatalf("served chunk %+v is not in the default partition %v", c, want)
		}
	}
	for _, c := range want {
		if !slices.Contains(served, c) {
			t.Fatalf("chunk %+v of the default partition was never dispatched", c)
		}
	}
}

// TestFleetAllDeadFallsBackLocally: when every worker dies mid-sweep the
// leftover chunks run in-process and the grid still matches local bytes.
func TestFleetAllDeadFallsBackLocally(t *testing.T) {
	b, wire := multiChunkGrid()
	spec := mustSpec(t, "tradeoff")
	local, err := elect.RunMany(spec, b)
	if err != nil {
		t.Fatal(err)
	}

	only := newHarness(t)
	only.failAfter.Store(2)
	fleet := newFleet(t, Config{}, only)
	remote := b
	remote.Remote = fleet.Runner(wire)
	got, err := elect.RunMany(spec, remote)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBatch(t, local), encodeBatch(t, got)) {
		t.Fatal("local-fallback grid differs from local RunMany")
	}
	if stats := fleet.Stats(); stats.LocalCells < 1 {
		t.Fatalf("no cells ran locally: %+v", stats)
	}
}

// TestFleetUnreachableFallsBackToRunMany: a configured but entirely dead
// fleet takes the scheduler's chunk-level local fallback, so RunMany through
// it is byte-identical to a local RunMany and every cell counts as local.
func TestFleetUnreachableFallsBackToRunMany(t *testing.T) {
	dead := newHarness(t)
	deadURL := dead.ts.URL
	dead.ts.Close() // nothing listens anymore

	b, wire := testGrid()
	spec := mustSpec(t, "tradeoff")
	local, err := elect.RunMany(spec, b)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := New(Config{
		Workers:       []string{deadURL},
		ClientOptions: []client.ClientOption{client.WithRetry(1, time.Millisecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	remote := b
	remote.Remote = fleet.Runner(wire)
	got, err := elect.RunMany(spec, remote)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBatch(t, local), encodeBatch(t, got)) {
		t.Fatal("fallback grid differs from local RunMany")
	}
	grid := elect.GridSize(b.Ns, b.Seeds, b.Topos)
	if stats := fleet.Stats(); stats.LocalCells != int64(grid) {
		t.Fatalf("LocalCells = %d, want the whole %d-cell grid", stats.LocalCells, grid)
	}
}

// TestFleetJournal: the journal is the fleet's only log. A fleet whose
// only worker is dead journals one chunk.local per chunk, and a chunk that
// fails on a worker journals chunk.failover with the error.
func TestFleetJournal(t *testing.T) {
	b, wire := multiChunkGrid()
	spec := mustSpec(t, "tradeoff")

	dead := newHarness(t)
	dead.ts.Close()
	fleet := newFleet(t, Config{}, dead)
	log := obs.NewEventLog(0, "coordinator")
	fleet.SetEvents(log)
	remote := b
	remote.Remote = fleet.Runner(wire)
	if _, err := elect.RunMany(spec, remote); err != nil {
		t.Fatal(err)
	}
	var got []Chunk
	for _, e := range byKind(log, "chunk.local") {
		start, _ := strconv.Atoi(e.Fields["start"])
		count, _ := strconv.Atoi(e.Fields["count"])
		got = append(got, Chunk{Start: start, Count: count})
	}
	want := Partition(b.Ns, b.Seeds, b.Topos)
	if !slices.Equal(got, want) {
		t.Fatalf("chunk.local events cover %v, want one per chunk %v", got, want)
	}

	survivor, victim := newHarness(t), newHarness(t)
	victim.failAfter.Store(1)
	fleet = newFleet(t, Config{}, survivor, victim)
	log = obs.NewEventLog(0, "coordinator")
	fleet.SetEvents(log)
	remote.Remote = fleet.Runner(wire)
	if _, err := elect.RunMany(spec, remote); err != nil {
		t.Fatal(err)
	}
	failovers := byKind(log, "chunk.failover")
	if len(failovers) == 0 {
		t.Fatal("no chunk.failover journaled despite a dead worker")
	}
	for _, e := range failovers {
		if e.Fields["worker"] != NormalizeURL(victim.ts.URL) || e.Fields["error"] == "" {
			t.Fatalf("chunk.failover %v, want the victim's URL and its error", e.Fields)
		}
	}
}

// byKind returns the journal's events of one kind, in order.
func byKind(log *obs.EventLog, kind string) []obs.Event {
	var out []obs.Event
	for _, e := range log.Events(0, 0) {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// workerStats returns h's entry in the fleet's accounting.
func workerStats(t *testing.T, f *Fleet, h *harness) WorkerStats {
	t.Helper()
	for _, ws := range f.Stats().Workers {
		if ws.URL == NormalizeURL(h.ts.URL) {
			return ws
		}
	}
	t.Fatalf("worker %s not in the fleet", h.ts.URL)
	return WorkerStats{}
}

// TestFleetProbesOnlyFirstGrid: a worker is up from a successful probe
// until a chunk to it fails, and a grid probes only the workers marked
// down. Over three grids on two healthy workers, only the first grid
// probes.
func TestFleetProbesOnlyFirstGrid(t *testing.T) {
	b, wire := multiChunkGrid()
	spec := mustSpec(t, "tradeoff")
	w1, w2 := newHarness(t), newHarness(t)
	fleet := newFleet(t, Config{}, w1, w2)
	remote := b
	remote.Remote = fleet.Runner(wire)
	for grid := 1; grid <= 3; grid++ {
		if _, err := elect.RunMany(spec, remote); err != nil {
			t.Fatal(err)
		}
		for _, h := range []*harness{w1, w2} {
			if got := h.probes.Load(); got != 1 {
				t.Fatalf("after grid %d, %s saw %d /healthz requests, want 1", grid, h.ts.URL, got)
			}
		}
	}
}

// TestFleetRevivesFailedWorker: a worker marked down by a failed chunk in
// one grid is probed at the next grid's start and, once it answers, is
// journaled up and takes chunks again. The healthy worker is not probed.
func TestFleetRevivesFailedWorker(t *testing.T) {
	b, wire := multiChunkGrid()
	spec := mustSpec(t, "tradeoff")
	survivor, flaky := newHarness(t), newHarness(t)
	flaky.failAfter.Store(1)
	fleet := newFleet(t, Config{}, survivor, flaky)
	remote := b
	remote.Remote = fleet.Runner(wire)
	if _, err := elect.RunMany(spec, remote); err != nil {
		t.Fatal(err)
	}
	if ws := workerStats(t, fleet, flaky); ws.Alive || ws.Failures == 0 {
		t.Fatalf("a worker that failed a chunk is still up: %+v", ws)
	}

	flaky.failAfter.Store(-1) // the daemon recovers
	log := obs.NewEventLog(0, "coordinator")
	fleet.SetEvents(log)
	flakyProbes, survivorProbes := flaky.probes.Load(), survivor.probes.Load()
	served := len(flaky.served())
	if _, err := elect.RunMany(spec, remote); err != nil {
		t.Fatal(err)
	}
	if got := flaky.probes.Load() - flakyProbes; got != 1 {
		t.Fatalf("the failed worker was probed %d times at grid 2, want 1", got)
	}
	if got := survivor.probes.Load() - survivorProbes; got != 0 {
		t.Fatalf("the healthy worker was probed %d times at grid 2, want 0", got)
	}
	ups := byKind(log, "worker.up")
	if len(ups) != 1 || ups[0].Fields["url"] != NormalizeURL(flaky.ts.URL) {
		t.Fatalf("grid 2 journaled worker.up %v, want the revived worker once", ups)
	}
	if len(flaky.served()) == served || !workerStats(t, fleet, flaky).Alive {
		t.Fatal("the revived worker took no chunks in grid 2")
	}
}

// TestFleetWorkerDiesBetweenGrids: a worker that dies between grids is
// still marked up, since no probe runs, so the next grid finds it by its
// first chunk: the chunk fails over, the worker is journaled down once,
// and the grid stays byte-identical to a local RunMany.
func TestFleetWorkerDiesBetweenGrids(t *testing.T) {
	b, wire := multiChunkGrid()
	spec := mustSpec(t, "tradeoff")
	local, err := elect.RunMany(spec, b)
	if err != nil {
		t.Fatal(err)
	}
	survivor, victim := newHarness(t), newHarness(t)
	fleet := newFleet(t, Config{}, survivor, victim)
	remote := b
	remote.Remote = fleet.Runner(wire)
	if _, err := elect.RunMany(spec, remote); err != nil {
		t.Fatal(err)
	}

	victim.ts.Close()
	log := obs.NewEventLog(0, "coordinator")
	fleet.SetEvents(log)
	got, err := elect.RunMany(spec, remote)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBatch(t, local), encodeBatch(t, got)) {
		t.Fatal("grid after a worker died differs from local RunMany")
	}
	if stats := fleet.Stats(); stats.ChunksRetried < 1 {
		t.Fatalf("no chunk failed over off the dead worker: %+v", stats)
	}
	downs := byKind(log, "worker.down")
	if len(downs) != 1 || downs[0].Fields["url"] != NormalizeURL(victim.ts.URL) {
		t.Fatalf("journaled worker.down %v, want the dead worker once", downs)
	}
}

// TestFleetCacheReuse: the merger reads and writes the fingerprint cache —
// a warm sweep dispatches nothing at all.
func TestFleetCacheReuse(t *testing.T) {
	b, wire := multiChunkGrid()
	b.Cache = resultcache.New()
	spec := mustSpec(t, "tradeoff")

	w := newHarness(t)
	fleet := newFleet(t, Config{}, w)
	remote := b
	remote.Remote = fleet.Runner(wire)
	cold, err := elect.RunMany(spec, remote)
	if err != nil {
		t.Fatal(err)
	}
	dispatched := len(w.served())
	if dispatched == 0 {
		t.Fatal("cold sweep dispatched nothing")
	}
	warm, err := elect.RunMany(spec, remote)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(w.served()); got != dispatched {
		t.Fatalf("warm sweep dispatched %d extra chunks", got-dispatched)
	}
	if stats := fleet.Stats(); stats.CachedCells != 16 {
		t.Fatalf("cached cells %d, want 16", stats.CachedCells)
	}
	if !bytes.Equal(encodeBatch(t, cold), encodeBatch(t, warm)) {
		t.Fatal("cache replay differs from dispatched sweep")
	}
}

// TestFleetRejectsWrongCells: a worker that answers every chunk with the
// right number of valid results, but for other seeds, must not get them
// merged into the grid or stored under the cells' fingerprints. The chunk
// fails like a short answer does, and the grid completes byte-identical to
// a local RunMany.
func TestFleetRejectsWrongCells(t *testing.T) {
	b, wire := multiChunkGrid()
	spec := mustSpec(t, "tradeoff")
	local, err := elect.RunMany(spec, b)
	if err != nil {
		t.Fatal(err)
	}

	var lies atomic.Int64
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			json.NewEncoder(w).Encode(client.Health{OK: true})
		case "/v1/chunk":
			var req client.ChunkRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			shifted := b
			shifted.Seeds = nil
			for _, s := range req.Seeds {
				shifted.Seeds = append(shifted.Seeds, s+1000)
			}
			results, _, err := elect.RunRange(spec, shifted, req.Start, req.Count)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			lies.Add(1)
			json.NewEncoder(w).Encode(client.ChunkResponse{Results: results})
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(liar.Close)

	cache := resultcache.New()
	fleet, err := New(Config{
		Workers:       []string{liar.URL},
		ClientOptions: []client.ClientOption{client.WithRetry(1, time.Millisecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	remote := b
	remote.Cache = cache
	remote.Remote = fleet.Runner(wire)
	got, err := elect.RunMany(spec, remote)
	if err != nil {
		t.Fatal(err)
	}
	if lies.Load() == 0 {
		t.Fatal("the lying worker was never asked")
	}
	if !bytes.Equal(encodeBatch(t, local), encodeBatch(t, got)) {
		t.Fatal("grid merged a worker's answers for the wrong cells")
	}
	ns, seeds := b.Ns, b.Seeds
	for idx, want := range local.Runs {
		key, err := elect.Fingerprint(spec, elect.CellOptions(&b, ns, seeds, idx)...)
		if err != nil {
			t.Fatal(err)
		}
		data, ok := cache.Get(key)
		if !ok {
			continue
		}
		wantBytes, err := elect.EncodeResult(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, wantBytes) {
			t.Fatalf("cell %d: cache holds another cell's result", idx)
		}
	}
}

// TestFleetTopoOption: a batch that names its single topology through the
// shared options (client.Options.Topo) rather than the Topos axis is
// answered by honest workers with that topology on every cell. Those
// answers are merged as they are: no cell runs locally and no worker is
// marked down.
func TestFleetTopoOption(t *testing.T) {
	spec := mustSpec(t, "kuttenmoses")
	b := elect.Batch{
		Ns:      []int{16, 256},
		Seeds:   elect.Seeds(1, 4),
		Options: []elect.Option{elect.WithTopology("ring")},
	}
	wire := client.Options{Topo: "ring"}
	local, err := elect.RunMany(spec, b)
	if err != nil {
		t.Fatal(err)
	}

	w1, w2 := newHarness(t), newHarness(t)
	fleet := newFleet(t, Config{}, w1, w2)
	remote := b
	remote.Remote = fleet.Runner(wire)
	got, err := elect.RunMany(spec, remote)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBatch(t, local), encodeBatch(t, got)) {
		t.Fatal("fleet-dispatched topology grid differs from local RunMany")
	}
	stats := fleet.Stats()
	if stats.LocalCells != 0 {
		t.Fatalf("honest workers' answers were rejected: %d cells ran locally", stats.LocalCells)
	}
	for _, ws := range stats.Workers {
		if !ws.Alive || ws.Failures != 0 {
			t.Fatalf("honest worker %s marked down or failed: %+v", ws.URL, ws)
		}
	}
}

// TestStragglerRedispatch: a chunk stuck on a slow worker is duplicated
// onto an idle one; the first answer wins and the result is unchanged.
func TestStragglerRedispatch(t *testing.T) {
	b, wire := testGrid()
	b.Ns, b.Seeds = []int{16}, elect.Seeds(1, 2) // one 2-cell chunk
	spec := mustSpec(t, "tradeoff")
	local, err := elect.RunMany(spec, b)
	if err != nil {
		t.Fatal(err)
	}

	slow, fast := newHarness(t), newHarness(t)
	const stall = 600 * time.Millisecond
	slow.delay.Store(int64(stall))
	fleet := newFleet(t, Config{}, slow, fast)
	fleet.SetStraggle(50 * time.Millisecond)
	remote := b
	remote.Remote = fleet.Runner(wire)
	start := time.Now()
	got, err := elect.RunMany(spec, remote)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= stall {
		t.Fatalf("sweep waited out the straggler (%v); re-dispatch did not happen", elapsed)
	}
	if !bytes.Equal(encodeBatch(t, local), encodeBatch(t, got)) {
		t.Fatal("straggler re-dispatch changed the grid")
	}
	if stats := fleet.Stats(); stats.ChunksRetried < 1 {
		t.Fatalf("straggler not counted as retried: %+v", stats)
	}

	// Regression: the abandoned duplicate must release its in-flight slot
	// once its request drains, or a reused Fleet slowly loses the worker.
	// Run a second straggler grid, drain, recover the slow worker, and it
	// must take chunks again.
	if _, err := elect.RunMany(spec, remote); err != nil {
		t.Fatal(err)
	}
	time.Sleep(stall + 100*time.Millisecond) // let the abandoned requests finish
	slow.delay.Store(0)
	before := fleet.Stats()
	var slowBefore int64
	for _, ws := range before.Workers {
		if ws.URL == NormalizeURL(slow.ts.URL) {
			slowBefore = ws.Chunks
		}
	}
	if _, err := elect.RunMany(spec, remote); err != nil {
		t.Fatal(err)
	}
	for _, ws := range fleet.Stats().Workers {
		if ws.URL == NormalizeURL(slow.ts.URL) && ws.Chunks <= slowBefore {
			t.Fatalf("recovered worker took no chunks (in-flight slots leaked): %+v", ws)
		}
	}
}

// TestFleetCancel: a closed Batch.Cancel aborts the dispatch loop with
// ErrCanceled, like the local executor.
func TestFleetCancel(t *testing.T) {
	b, wire := testGrid()
	cancel := make(chan struct{})
	close(cancel)
	b.Cancel = cancel
	spec := mustSpec(t, "tradeoff")

	w := newHarness(t)
	fleet := newFleet(t, Config{}, w)
	remote := b
	remote.Remote = fleet.Runner(wire)
	if _, err := elect.RunMany(spec, remote); err != elect.ErrCanceled {
		t.Fatalf("canceled fleet sweep: %v, want ErrCanceled", err)
	}
}

// TestFleetDefiniteErrorAborts: a configuration the daemon rejects (bad
// parameters) aborts the grid instead of failing over forever.
func TestFleetDefiniteErrorAborts(t *testing.T) {
	k := 1 // invalid for tradeoff
	b := elect.Batch{Ns: []int{16}, Seeds: elect.Seeds(1, 2),
		Options: []elect.Option{elect.WithParams(elect.Params{K: 1, D: 2, G: 1, Eps: 1.0 / 16})}}
	spec := mustSpec(t, "tradeoff")
	w1, w2 := newHarness(t), newHarness(t)
	fleet := newFleet(t, Config{}, w1, w2)
	remote := b
	remote.Remote = fleet.Runner(client.Options{Params: &client.ParamSpec{K: &k}})
	if _, err := elect.RunMany(spec, remote); err == nil {
		t.Fatal("invalid configuration dispatched successfully")
	}
	if stats := fleet.Stats(); stats.ChunksRetried != 0 {
		t.Fatalf("definite error was retried: %+v", stats)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty worker list accepted")
	}
	if _, err := New(Config{Workers: []string{"  "}}); err == nil {
		t.Fatal("blank worker URL accepted")
	}
	// Two entries for one daemon would register it twice and halve the
	// fleet, however the second one is spelled.
	for _, workers := range [][]string{
		{"h1:1", "h2:2", "h1:1"},
		{"h1:1", "h1:1"},
		{"localhost:8090", "http://localhost:8090/"},
	} {
		if _, err := New(Config{Workers: workers}); err == nil {
			t.Fatalf("duplicate workers %q accepted", workers)
		}
	}
	// The same host on different ports is two daemons.
	if _, err := New(Config{Workers: []string{"h1:1", "h1:2"}}); err != nil {
		t.Fatalf("two ports on one host rejected: %v", err)
	}
	if got := NormalizeURL(" host:8090/ "); got != "http://host:8090" {
		t.Fatalf("NormalizeURL = %q", got)
	}
	if got := NormalizeURL("https://h"); got != "https://h" {
		t.Fatalf("NormalizeURL kept scheme: %q", got)
	}
}

// Probe must be bounded by its timeout even against a black hole: a
// listener that never accepts, so the connection opens and no answer ever
// comes.
func TestProbeTimeout(t *testing.T) {
	hole, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hole.Close() })
	f, err := New(Config{
		Workers:       []string{hole.Addr().String()},
		ClientOptions: []client.ClientOption{client.WithRetry(1, time.Millisecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if alive := f.Probe(context.Background()); alive != 0 {
		t.Fatalf("black hole alive: %d", alive)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("probe took %v", elapsed)
	}
}
