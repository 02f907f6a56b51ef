package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"cliquelect/elect"
	"cliquelect/elect/client"
	"cliquelect/internal/resultcache"
)

// perLayer lists every per-layer metric a traced run reports, in the order
// BENCHMARK.json declares them.
var perLayer = []struct{ name, unit string }{
	{"client.call_p50_ms", "ms"},
	{"client.attempts_per_op", "count"},
	{"client.retries", "count"},
	{"service.handler_p50_ms", "ms"},
	{"service.self_p50_ms", "ms"},
	{"service.transport_p50_ms", "ms"},
	{"jobs.queue_wait_p50_ms", "ms"},
	{"jobs.queue_wait_tail_ms", "ms"},
	{"jobs.exec_p50_ms", "ms"},
	{"resultcache.hit_ratio", "ratio"},
	{"resultcache.evictions_per_op", "count"},
	{"resultcache.get_us", "us"},
	{"resultcache.put_us", "us"},
	{"resultcache.allocs_per_get", "count"},
	{"codec.decode_us", "us"},
	{"codec.encode_us", "us"},
	{"codec.allocs_per_decode", "count"},
	{"codec.bytes_per_result", "B"},
	{"engine.cell_ms", "ms"},
	{"engine.allocs_per_cell", "count"},
	{"engine.messages_per_cell", "count"},
	{"distrib.grid_p50_ms", "ms"},
	{"distrib.chunk_p50_ms", "ms"},
	{"distrib.self_p50_ms", "ms"},
	{"distrib.chunks_per_grid", "count"},
	{"distrib.worker_busy_ratio", "ratio"},
	{"distrib.chunks_retried", "count"},
	{"distrib.local_cells", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// layerReport collects a traced run's per-layer metrics and the lines that
// explain them.
type layerReport struct {
	metrics map[string]metric
	lines   []string
}

func newLayerReport() *layerReport { return &layerReport{metrics: map[string]metric{}} }

func (r *layerReport) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *layerReport) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// print writes the explanatory lines and fails loudly if a layer metric
// went unmeasured.
func (r *layerReport) print() {
	for _, l := range r.lines {
		fmt.Println("# " + l)
	}
	for _, m := range perLayer {
		if _, ok := r.metrics[m.name]; !ok {
			panic("perfbench: per-layer metric " + m.name + " was not measured")
		}
	}
}

// share prints one step of the blocking path as a share of the whole.
func (r *layerReport) share(step string, part, whole time.Duration) {
	r.note("  %-16s %9.4f ms  %5.1f%%", step, ms(part), 100*float64(part)/float64(whole))
}

// meanDur is the mean of ds (0 for none).
func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// jobLayers reports the service and jobs layers from matched request
// records: for each request, the client's call time, the handler time the
// middleware saw, and the job's Created/Started/Finished stamps. It returns
// the blocking-path means: transport, service self, queue wait, exec.
func jobLayers(r *layerReport, calls, handlers []time.Duration, jobs []client.JobStatus) (tr, self, wait, exec time.Duration) {
	var trs, selfs, waits, execs []time.Duration
	for k := range jobs {
		j := jobs[k]
		inJob := j.Finished.Sub(j.Created)
		trs = append(trs, calls[k]-handlers[k])
		selfs = append(selfs, handlers[k]-inJob)
		waits = append(waits, j.Started.Sub(j.Created))
		execs = append(execs, j.Finished.Sub(j.Started))
	}
	r.set("service.handler_p50_ms", ms(p50(handlers)), "ms")
	r.set("service.self_p50_ms", ms(p50(selfs)), "ms")
	r.set("service.transport_p50_ms", ms(p50(trs)), "ms")
	r.set("jobs.queue_wait_p50_ms", ms(p50(waits)), "ms")
	wt, pct := tail(waits, 99.9)
	r.set("jobs.queue_wait_tail_ms", ms(wt), "ms")
	r.set("jobs.exec_p50_ms", ms(p50(execs)), "ms")
	r.note("service/jobs layers over %d matched requests; jobs.queue_wait_tail_ms is p%g (%d beyond)", len(jobs), pct, beyond(len(waits), pct))
	return meanDur(trs), meanDur(selfs), meanDur(waits), meanDur(execs)
}

// kv is one cache entry of a replay.
type kv struct {
	key   string
	value []byte
}

// cacheReplay replays a run's cache traffic against a fresh resultcache
// with electd's bound: the set-up fill, then one Get per request key, then
// one Put per computed result. Gets and Puts are timed as whole passes, so
// clock reads do not swamp sub-microsecond calls. With no Puts in the run
// (every request a hit), put_us is read from the fill.
func cacheReplay(r *layerReport, fill []kv, gets []string, puts []kv) {
	c := resultcache.New(resultcache.WithMaxEntries(resultcache.DefaultMaxEntries))
	t0 := time.Now()
	for _, e := range fill {
		c.Put(e.key, e.value)
	}
	fillDur := time.Since(t0)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 = time.Now()
	for _, k := range gets {
		c.Get(k)
	}
	getDur := time.Since(t0)
	runtime.ReadMemStats(&m1)

	t0 = time.Now()
	for _, e := range puts {
		c.Put(e.key, e.value)
	}
	putDur := time.Since(t0)
	putN := len(puts)
	putSrc := "run"
	if putN == 0 {
		putDur, putN, putSrc = fillDur, len(fill), "set-up fill"
	}
	r.set("resultcache.get_us", us(getDur)/float64(max(len(gets), 1)), "us")
	r.set("resultcache.put_us", us(putDur)/float64(max(putN, 1)), "us")
	r.set("resultcache.allocs_per_get", float64(m1.Mallocs-m0.Mallocs)/float64(max(len(gets), 1)), "count")
	st := c.Stats()
	r.note("resultcache replay: %d fill puts, %d gets (%d hits), %d puts from the %s, %d evictions", len(fill), len(gets), st.Hits, putN, putSrc, st.Evictions)
}

// codecReplay decodes and re-encodes a sample of the run's result bytes,
// repeating the pass until it has taken at least 50 ms.
func codecReplay(r *layerReport, samples [][]byte) error {
	if len(samples) == 0 {
		return fmt.Errorf("codec replay: no result samples")
	}
	decoded := make([]elect.Result, len(samples))
	var (
		decDur, encDur time.Duration
		decN, encN     int
		size           int
		m0, m1         runtime.MemStats
	)
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for decDur < 50*time.Millisecond {
		t0 := time.Now()
		for i, b := range samples {
			res, err := elect.DecodeResult(b)
			if err != nil {
				return err
			}
			decoded[i] = res
		}
		decDur += time.Since(t0)
		decN += len(samples)
	}
	runtime.ReadMemStats(&m1)
	for encDur < 50*time.Millisecond {
		t0 := time.Now()
		for _, res := range decoded {
			if _, err := elect.EncodeResult(res); err != nil {
				return err
			}
		}
		encDur += time.Since(t0)
		encN += len(decoded)
	}
	for _, b := range samples {
		size += len(b)
	}
	r.set("codec.decode_us", us(decDur)/float64(decN), "us")
	r.set("codec.encode_us", us(encDur)/float64(encN), "us")
	r.set("codec.allocs_per_decode", float64(m1.Mallocs-m0.Mallocs)/float64(decN), "count")
	r.set("codec.bytes_per_result", float64(size)/float64(len(samples)), "B")
	r.note("codec replay over %d sampled results", len(samples))
	return nil
}

// engineCell is one election to replay through elect.Run, with the bytes
// the stack answered for it when known.
type engineCell struct {
	spec elect.Spec
	opts []elect.Option
	want []byte
}

// engineReplay re-runs a seeded sample of the run's cells in process, one
// at a time, and checks each against the answer the stack gave.
func engineReplay(r *layerReport, cells []engineCell) error {
	if len(cells) == 0 {
		return fmt.Errorf("engine replay: no cells")
	}
	var (
		total  time.Duration
		allocs uint64
		msgs   int64
	)
	for _, c := range cells {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		res, err := elect.Run(c.spec, c.opts...)
		total += time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return fmt.Errorf("engine replay: %w", err)
		}
		allocs += m1.Mallocs - m0.Mallocs
		msgs += res.Messages
		if c.want != nil {
			b, err := elect.EncodeResult(res)
			if err != nil || string(b) != string(c.want) {
				return fmt.Errorf("engine replay of %s n=%d seed=%d disagrees with the served answer", res.Algorithm, res.N, res.Seed)
			}
		}
	}
	n := float64(len(cells))
	r.set("engine.cell_ms", ms(total)/n, "ms")
	r.set("engine.allocs_per_cell", float64(allocs)/n, "count")
	r.set("engine.messages_per_cell", float64(msgs)/n, "count")
	r.note("engine replay over %d sampled cells", len(cells))
	return nil
}

// distribLayers reports the fleet layer from timed grids, the worker-side
// /v1/chunk intervals and the fleet's accounting over the same stretch. It
// returns the mean grid time and its blocking-path split: grid self time
// (partition, schedule, merge, client encode/decode) and the time covered
// by at least one chunk.
func distribLayers(r *layerReport, gridIvs, chunkIvs []interval, d fleetDelta, elapsed time.Duration, workers int) (grid, self, chunk time.Duration) {
	sort.Slice(chunkIvs, func(i, j int) bool { return chunkIvs[i].start.Before(chunkIvs[j].start) })
	var grids, selfs, unions, chunks []time.Duration
	for _, c := range chunkIvs {
		chunks = append(chunks, c.dur())
	}
	k := 0
	for _, g := range gridIvs {
		for k < len(chunkIvs) && chunkIvs[k].start.Before(g.start) {
			k++
		}
		var covered time.Duration
		var end time.Time
		for ; k < len(chunkIvs) && !chunkIvs[k].start.After(g.end); k++ {
			c := chunkIvs[k]
			s, e := c.start, c.end
			if s.Before(end) {
				s = end
			}
			if e.After(s) {
				covered += e.Sub(s)
				end = e
			}
		}
		grids = append(grids, g.dur())
		unions = append(unions, covered)
		selfs = append(selfs, g.dur()-covered)
	}
	n := float64(max(len(gridIvs), 1))
	r.set("distrib.grid_p50_ms", ms(p50(grids)), "ms")
	r.set("distrib.chunk_p50_ms", ms(p50(chunks)), "ms")
	r.set("distrib.self_p50_ms", ms(p50(selfs)), "ms")
	r.set("distrib.chunks_per_grid", float64(d.chunks)/n, "count")
	r.set("distrib.worker_busy_ratio", d.busy.Seconds()/(elapsed.Seconds()*float64(workers)), "ratio")
	r.set("distrib.chunks_retried", float64(d.retried), "count")
	r.set("distrib.local_cells", float64(d.local), "count")
	return meanDur(grids), meanDur(selfs), meanDur(unions)
}

// byPath keeps the intervals of one route.
func byPath(ivs []interval, path string) []interval {
	var out []interval
	for _, iv := range ivs {
		if iv.path == path {
			out = append(out, iv)
		}
	}
	return out
}

// ------------------------------------------------------------ serve layers

// serveLayers reports the client, service and jobs layers of a traced
// serve window, the resultcache hit ratio and eviction rate, and the
// blocking-path split.
func (s *serveBase) serveLayers(r *layerReport, win window) {
	handler := map[string]time.Duration{}
	for _, iv := range byPath(s.d.rec.take(), "/v1/run") {
		handler[iv.job] = iv.dur()
	}
	var calls, handlers, allCalls []time.Duration
	var jobs []client.JobStatus
	for _, rec := range s.records {
		allCalls = append(allCalls, rec.call)
		if h, ok := handler[rec.job.ID]; ok {
			calls = append(calls, rec.call)
			handlers = append(handlers, h)
			jobs = append(jobs, rec.job)
		}
	}
	cs, ks := s.cacheT, s.clientT
	ops := float64(win.ops())
	r.set("client.call_p50_ms", ms(p50(allCalls)), "ms")
	r.set("client.attempts_per_op", float64(ks.Attempts)/ops, "count")
	r.set("client.retries", float64(ks.Retries), "count")
	tr, self, wait, exec := jobLayers(r, calls, handlers, jobs)
	lookups := cs.Hits + cs.Misses
	r.set("resultcache.hit_ratio", float64(cs.Hits)/float64(max(lookups, 1)), "ratio")
	r.set("resultcache.evictions_per_op", float64(cs.Evictions)/ops, "count")

	call := meanDur(calls)
	r.note("blocking path, mean per request (client latency %.4f ms):", ms(call))
	r.share("transport", tr, call)
	r.share("service self", self, call)
	r.share("queue wait", wait, call)
	r.share("exec", exec, call)
	r.share("unaccounted", call-tr-self-wait-exec, call)
}

// distribProbe measures the fleet layer on a workload that sends it no
// traffic: eight fleet-sweep grids dispatched to the serving daemon after
// the window, so every per-layer figure is measured on every workload.
func (s *serveBase) distribProbe(r *layerReport) error {
	const probeGrids = 8
	g, err := newGrids(s.cfg.seed, []string{s.d.url}, nil)
	if err != nil {
		return err
	}
	if g.fleet.Probe(context.Background()) != 1 {
		return fmt.Errorf("distrib probe: serving daemon not alive")
	}
	s0 := g.fleet.Stats()
	s.d.rec.on.Store(true)
	start := time.Now()
	var ivs []interval
	for i := 0; i < probeGrids; i++ {
		t0 := time.Now()
		if _, ok := g.run(i); !ok {
			return fmt.Errorf("distrib probe: grid %d failed", i)
		}
		ivs = append(ivs, interval{start: t0, end: time.Now()})
	}
	elapsed := time.Since(start)
	s.d.rec.on.Store(false)
	d := deltaStats(s0, g.fleet.Stats())
	distribLayers(r, ivs, byPath(s.d.rec.take(), "/v1/chunk"), d, elapsed, 1)
	r.note("distrib.* from a %d-grid probe through the serving daemon after the window (this workload sends no fleet traffic)", probeGrids)
	return nil
}

// sampleIdx picks up to n op indices of the window, evenly spaced.
func sampleIdx(win window, n int) []int {
	ops := win.ops()
	if ops < n {
		n = ops
	}
	out := make([]int, n)
	for k := range out {
		out[k] = win.first + k*ops/n
	}
	return out
}

func (h *serveHot) layers(win window) (*layerReport, error) {
	r := newLayerReport()
	h.serveLayers(r, win)
	fill := make([]kv, len(h.set))
	for k, c := range h.set {
		fill[k] = kv{c.key, h.bytes[k]}
	}
	var gets []string
	for i := win.first; i < win.next; i++ {
		gets = append(gets, h.set[h.rank(i)].key)
	}
	cacheReplay(r, fill, gets, nil)
	var samples [][]byte
	for _, i := range sampleIdx(win, 256) {
		samples = append(samples, h.bytes[h.rank(i)])
	}
	if err := codecReplay(r, samples); err != nil {
		return nil, err
	}
	var cells []engineCell
	for _, i := range sampleIdx(win, 24) {
		rk := h.rank(i)
		cells = append(cells, engineCell{h.set[rk].spec, h.set[rk].opts, h.bytes[rk]})
	}
	if err := engineReplay(r, cells); err != nil {
		return nil, err
	}
	return r, h.distribProbe(r)
}

func (c *serveCold) layers(win window) (*layerReport, error) {
	r := newLayerReport()
	c.serveLayers(r, win)
	fill := make([]kv, len(c.fillKeys))
	for k, key := range c.fillKeys {
		fill[k] = kv{key, c.templates[c.fillClass[k]]}
	}
	var gets []string
	var puts []kv
	for i := win.first; i < win.next; i++ {
		cell, cl, err := c.cell(streamColdOps, i)
		if err != nil {
			return nil, err
		}
		gets = append(gets, cell.key)
		puts = append(puts, kv{cell.key, c.templates[cl]})
	}
	cacheReplay(r, fill, gets, puts)
	var samples [][]byte
	var cells []engineCell
	for _, i := range sortedKeys(c.samples) {
		samples = append(samples, c.samples[i])
		if len(cells) < 24 {
			cell, _, err := c.cell(streamColdOps, i)
			if err != nil {
				return nil, err
			}
			cells = append(cells, engineCell{cell.spec, cell.opts, c.samples[i]})
		}
	}
	if err := codecReplay(r, samples); err != nil {
		return nil, err
	}
	if err := engineReplay(r, cells); err != nil {
		return nil, err
	}
	return r, c.distribProbe(r)
}

// ------------------------------------------------------------ fleet layers

func (f *fleetSweep) layers(win window) (*layerReport, error) {
	r := newLayerReport()
	// Worker side: /v1/chunk handler intervals, joined to each chunk job's
	// stamps from the worker's job table and to the coordinator's view of
	// the same exchange (the timing transport) by job id.
	var chunkIvs []interval
	jobs := map[string]client.JobStatus{}
	for _, d := range f.workers {
		chunkIvs = append(chunkIvs, byPath(d.rec.take(), "/v1/chunk")...)
		list, err := client.New(d.url).Jobs(context.Background())
		if err != nil {
			return nil, fmt.Errorf("listing worker jobs: %w", err)
		}
		for _, j := range list {
			jobs[j.ID] = j
		}
	}
	callOf := map[string]time.Duration{}
	var allCalls []time.Duration
	for _, iv := range byPath(f.tt.take(), "/v1/chunk") {
		callOf[iv.job] = iv.dur()
		allCalls = append(allCalls, iv.dur())
	}
	var calls, handlers []time.Duration
	var matched []client.JobStatus
	for _, iv := range chunkIvs {
		j, ok := jobs[iv.job]
		call, ok2 := callOf[iv.job]
		if ok && ok2 {
			calls = append(calls, call)
			handlers = append(handlers, iv.dur())
			matched = append(matched, j)
		}
	}
	d := f.tracedDelta
	ops := float64(win.ops())
	r.set("client.call_p50_ms", ms(p50(allCalls)), "ms")
	r.set("client.attempts_per_op", float64(d.attempts)/ops, "count")
	r.set("client.retries", float64(d.retries), "count")
	if len(matched) == 0 {
		return nil, fmt.Errorf("no chunk request matched a retained worker job")
	}
	r.note("client.* time the coordinator's chunk exchanges (the caller itself makes no HTTP calls)")
	jobLayers(r, calls, handlers, matched)
	// Per-grid cache traffic on the workers: every cell a miss and a Put.
	var hits, lookups, evictions int64
	for w, dm := range f.workers {
		st := dm.cache.Stats()
		hits += st.Hits - f.cacheT[w].Hits
		lookups += st.Hits + st.Misses - f.cacheT[w].Hits - f.cacheT[w].Misses
		evictions += st.Evictions - f.cacheT[w].Evictions
	}
	r.set("resultcache.hit_ratio", float64(hits)/float64(max(lookups, 1)), "ratio")
	r.set("resultcache.evictions_per_op", float64(evictions)/ops, "count")

	// Replays: the cells of every traced grid through a fresh cache, and
	// the sampled grids' cells through the codec and the engines.
	var samples [][]byte
	var cells []engineCell
	template := map[int][]byte{}
	for _, i := range sortedKeys(f.samples) {
		br, err := elect.DecodeBatchResult(f.samples[i])
		if err != nil {
			return nil, err
		}
		b := f.g.batch(i, false)
		for idx, res := range br.Runs {
			enc, err := elect.EncodeResult(res)
			if err != nil {
				return nil, err
			}
			template[res.N] = enc
			if len(samples) < 256 {
				samples = append(samples, enc)
			}
			if idx%8 == 0 && len(cells) < 32 {
				cells = append(cells, engineCell{f.g.spec, elect.CellOptions(&b, b.Ns, b.Seeds, idx), enc})
			}
		}
	}
	var gets []string
	var puts []kv
	for i := win.first; i < win.next; i++ {
		b := f.g.batch(i, false)
		for idx := 0; idx < fleetGridCells; idx++ {
			key, err := elect.Fingerprint(f.g.spec, elect.CellOptions(&b, b.Ns, b.Seeds, idx)...)
			if err != nil {
				return nil, err
			}
			gets = append(gets, key)
			puts = append(puts, kv{key, template[fleetNs[idx/fleetSeeds]]})
		}
	}
	cacheReplay(r, nil, gets, puts)
	if err := codecReplay(r, samples); err != nil {
		return nil, err
	}
	if err := engineReplay(r, cells); err != nil {
		return nil, err
	}

	grid, self, chunk := distribLayers(r, f.spans, chunkIvs, d, win.elapsed, fleetWorkers)
	r.note("blocking path, mean per grid (grid latency %.4f ms):", ms(grid))
	r.share("grid self", self, grid)
	r.share("chunks", chunk, grid)
	r.share("unaccounted", grid-self-chunk, grid)
	return r, nil
}
