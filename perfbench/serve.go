package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"cliquelect/elect"
	"cliquelect/elect/client"
	"cliquelect/internal/resultcache"
)

// serveCallers is the closed-loop caller count of both serve workloads:
// two sweep clients, each waiting for its answer before sending again.
const serveCallers = 2

// serveSpecs are the protocols both serve workloads ask for: the paper's
// Theorem 3.10 tradeoff and its two baselines.
var serveSpecs = []struct {
	name string
	k    int // 0 keeps the spec's default parameters
}{
	{"tradeoff", 4},
	{"afekgafni", 0},
	{"asynctradeoff", 0},
}

// runCell is one POST /v1/run request and what checking its answer needs.
type runCell struct {
	req  client.RunRequest
	spec elect.Spec
	opts []elect.Option
	key  string // elect.Fingerprint: the daemon's cache key
}

func newRunCell(specIdx, n int, seed uint64) (runCell, error) {
	s := serveSpecs[specIdx]
	req := client.RunRequest{Spec: s.name, N: n, Seed: seed}
	if s.k > 0 {
		k := s.k
		req.Params = &client.ParamSpec{K: &k}
	}
	spec, opts, err := req.Resolve()
	if err != nil {
		return runCell{}, err
	}
	key, err := elect.Fingerprint(spec, opts...)
	if err != nil {
		return runCell{}, err
	}
	return runCell{req: req, spec: spec, opts: opts, key: key}, nil
}

// encodeLocal runs the cell in process, as the daemon would, and returns
// its wire bytes.
func (c runCell) encodeLocal() ([]byte, elect.Result, error) {
	res, err := elect.Run(c.spec, c.opts...)
	if err != nil {
		return nil, res, err
	}
	b, err := elect.EncodeResult(res)
	return b, res, err
}

// runTrace is what a traced serve request leaves behind: the client's view
// of the call and the job stamps the daemon returned.
type runTrace struct {
	call time.Duration
	job  client.JobStatus
}

// serveBase is the part of a serve workload shared by serve-hot and
// serve-cold: one daemon, one client per caller, and the traced-window
// records.
type serveBase struct {
	cfg     config
	d       *daemon
	clients []*client.Client
	ctx     context.Context

	cache0  resultcache.Stats
	client0 client.ClientStats
	// cacheT and clientT are the counter deltas over the traced window.
	cacheT  resultcache.Stats
	clientT client.ClientStats

	traced  bool
	mu      sync.Mutex
	records []runTrace
}

func (s *serveBase) start() error {
	d, err := startDaemon(s.cfg.trace)
	if err != nil {
		return err
	}
	s.d = d
	s.ctx = context.Background()
	for c := 0; c < serveCallers; c++ {
		s.clients = append(s.clients, client.New(d.url))
	}
	return nil
}

func (s *serveBase) callers() int { return serveCallers }
func (s *serveBase) cells() int   { return 1 }

func (s *serveBase) close() error {
	if s.d == nil {
		return nil
	}
	return s.d.close()
}

func (s *serveBase) clientStats() client.ClientStats {
	var out client.ClientStats
	for _, c := range s.clients {
		st := c.Stats()
		out.Attempts += st.Attempts
		out.Retries += st.Retries
	}
	return out
}

func (s *serveBase) begin() {
	s.cache0 = s.d.cache.Stats()
	s.client0 = s.clientStats()
}

// deltas are the daemon cache and client counters since the given
// snapshots.
func (s *serveBase) deltas(c0 resultcache.Stats, k0 client.ClientStats) (resultcache.Stats, client.ClientStats) {
	c1, k1 := s.d.cache.Stats(), s.clientStats()
	return resultcache.Stats{
			Hits: c1.Hits - c0.Hits, Misses: c1.Misses - c0.Misses,
			Puts: c1.Puts - c0.Puts, Evictions: c1.Evictions - c0.Evictions,
			Entries: c1.Entries,
		}, client.ClientStats{
			Attempts: k1.Attempts - k0.Attempts, Retries: k1.Retries - k0.Retries,
		}
}

// call sends one run request as caller c and, on traced windows, keeps the
// client's view of it.
func (s *serveBase) call(c int, req client.RunRequest) (*client.RunResponse, time.Duration, error) {
	t0 := time.Now()
	resp, err := s.clients[c].Run(s.ctx, req)
	lat := time.Since(t0)
	if err == nil && s.traced {
		s.mu.Lock()
		s.records = append(s.records, runTrace{call: lat, job: resp.Job})
		s.mu.Unlock()
	}
	return resp, lat, err
}

func (s *serveBase) traceOn() {
	s.cacheT, s.clientT = s.d.cache.Stats(), s.clientStats()
	s.traced = true
	s.d.rec.on.Store(true)
}

func (s *serveBase) traceOff() {
	s.d.rec.on.Store(false)
	s.traced = false
	s.cacheT, s.clientT = s.deltas(s.cacheT, s.clientT)
}

// fill issues every cell once through the callers, in parallel, and
// returns each answer's wire bytes.
func (s *serveBase) fill(cells []runCell) ([][]byte, error) {
	out := make([][]byte, len(cells))
	errs := make([]error, serveCallers)
	var wg sync.WaitGroup
	for c := 0; c < serveCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(cells); i += serveCallers {
				resp, err := s.clients[c].Run(s.ctx, cells[i].req)
				if err == nil && (resp.Result == nil || !resp.Result.OK) {
					err = fmt.Errorf("%s n=%d seed=%d: no valid result", cells[i].req.Spec, cells[i].req.N, cells[i].req.Seed)
				}
				if err == nil {
					out[i], err = elect.EncodeResult(*resp.Result)
				}
				if err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// ---------------------------------------------------------------- serve-hot

// serveHot: every request is a cache hit on a working set of hotSetSize
// fingerprints filled during set-up, drawn zipf(hotZipf) by rank.
type serveHot struct {
	serveBase
	set   []runCell
	bytes [][]byte // each working-set cell's wire bytes, from the fill
	cdf   []float64
}

const (
	hotSetSize = 512
	hotZipf    = 1.1
)

func newServeHot(cfg config) workload {
	return &serveHot{serveBase: serveBase{cfg: cfg}}
}

func (h *serveHot) tailPct() float64 { return 99 }
func (h *serveHot) warmOps() int     { return 2000 }

// The working set is laid out by rank: rank r asks for spec r%3 at
// n = 256 or 512 by (r/3)%2, so the mix of specs and sizes by request
// weight is the same for every seed; the seed picks the election seeds.
func (h *serveHot) setup() error {
	if err := h.start(); err != nil {
		return err
	}
	base := seedBase(h.cfg.seed, streamHotSet)
	for r := 0; r < hotSetSize; r++ {
		c, err := newRunCell(r%3, []int{256, 512}[(r/3)%2], base+uint64(r))
		if err != nil {
			return err
		}
		h.set = append(h.set, c)
	}
	var err error
	if h.bytes, err = h.fill(h.set); err != nil {
		return fmt.Errorf("filling the working set: %w", err)
	}
	h.cdf = zipfCDF(hotSetSize, hotZipf)
	return nil
}

func (h *serveHot) rank(i int) int {
	r := pick(h.cdf, unit(draw(h.cfg.seed, streamHotOps, i)))
	if r >= hotSetSize {
		r = hotSetSize - 1
	}
	return r
}

// op sends a working-set request; its answer must be a cache hit whose
// result re-encodes to exactly the bytes recorded at set-up.
func (h *serveHot) op(c, i int) (time.Duration, bool) {
	r := h.rank(i)
	resp, lat, err := h.call(c, h.set[r].req)
	if err != nil || !resp.CacheHit || resp.Result == nil {
		return lat, false
	}
	b, err := elect.EncodeResult(*resp.Result)
	return lat, err == nil && bytes.Equal(b, h.bytes[r])
}

func (h *serveHot) check(ops int) []string {
	cs, ks := h.deltas(h.cache0, h.client0)
	var out []string
	if cs.Hits != int64(ops) || cs.Misses != 0 {
		out = append(out, fmt.Sprintf("serve-hot must hit the cache on every request: %d hits, %d misses over %d requests", cs.Hits, cs.Misses, ops))
	}
	if ks.Retries != 0 {
		out = append(out, fmt.Sprintf("client retried %d times", ks.Retries))
	}
	return out
}

// verify re-runs every working-set cell in process: each answer was
// compared inside the loop with the bytes the fill recorded, and this
// checks those bytes themselves. Every request on a cell that disagrees
// counts as failed.
func (h *serveHot) verify(first, next int) (int, error) {
	bad := make([]bool, len(h.set))
	errs := make([]error, serveCallers)
	var wg sync.WaitGroup
	for c := 0; c < serveCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := c; r < len(h.set); r += serveCallers {
				b, _, err := h.set[r].encodeLocal()
				if err != nil {
					errs[c] = err
					return
				}
				bad[r] = !bytes.Equal(b, h.bytes[r])
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	failed := 0
	for i := first; i < next; i++ {
		if bad[h.rank(i)] {
			failed++
		}
	}
	return failed, nil
}

// --------------------------------------------------------------- serve-cold

// serveCold: every request carries a fresh seed, so every request misses
// the cache and runs an engine, and the cache is full from set-up on, so
// every Put evicts.
type serveCold struct {
	serveBase
	classes   []coldClass // the (spec, n) pairs of the mix
	counts    []int       // each class's operations per block
	templates [][]byte    // per class: the wire bytes of one real run

	fillKeys  []string
	fillClass []int

	omu    sync.Mutex
	orders map[[2]int][]int // (stream, block) -> class at each position

	smu     sync.Mutex
	samples map[int][]byte // sampled op index -> answered wire bytes
}

// coldClass is one (spec, n) pair of the cold mix.
type coldClass struct{ spec, n int }

var coldNs = []int{256, 512, 1024, 2048}

const (
	// coldZipf weights n by rank as 1, 1/2, 1/3, 1/4. At 1.1 the median
	// request fell one or two operations per block from the step between
	// n = 512 sync runs (about 2 ms) and n = 1024 ones (about 4.5 ms), and
	// latency_p50_ms swung by 20% between runs whose throughput agreed
	// within 6%; at 1.0 it sits three operations inside the n = 1024 band,
	// while the 95th percentile stays inside the n = 1024 async band.
	coldZipf = 1.0
	// coldBlock operations hold every class in exact zipf proportion over
	// n (coldBlock/3 per spec), so the realised mix of a run is fixed.
	coldBlock = 180
	// coldSampleEvery: one op in this many (by seeded draw) is re-run
	// locally after the window and compared byte for byte, up to
	// coldSamples of them.
	coldSampleEvery = 32
	coldSamples     = 64
)

func newServeCold(cfg config) workload {
	c := &serveCold{serveBase: serveBase{cfg: cfg}, orders: map[[2]int][]int{}, samples: map[int][]byte{}}
	counts := zipfCounts(len(coldNs), coldZipf, coldBlock/len(serveSpecs))
	for s := range serveSpecs {
		for j, cnt := range counts {
			c.classes = append(c.classes, coldClass{s, j})
			c.counts = append(c.counts, cnt)
		}
	}
	return c
}

func (c *serveCold) tailPct() float64 { return 95 }
func (c *serveCold) warmOps() int     { return 90 }

// order returns the classes of block b of a stream. Class k's m-th
// operation sits at (m+u)/counts[k] of the way through the block, for a
// seeded u in [0,1), so every prefix of a block, the partial last block of
// a run included, holds each class within one operation of its share.
func (c *serveCold) order(stream, b int) []int {
	c.omu.Lock()
	defer c.omu.Unlock()
	if o, ok := c.orders[[2]int{stream, b}]; ok {
		return o
	}
	type slot struct {
		at    float64
		class int
	}
	var slots []slot
	for k, cnt := range c.counts {
		for m := 0; m < cnt; m++ {
			u := unit(draw(c.cfg.seed, streamShuffle, stream<<40+b*coldBlock+len(slots)))
			slots = append(slots, slot{(float64(m) + u) / float64(cnt), k})
		}
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i].at < slots[j].at })
	o := make([]int, len(slots))
	for i, sl := range slots {
		o[i] = sl.class
	}
	c.orders[[2]int{stream, b}] = o
	return o
}

// cell returns op i of a stream and its class.
func (c *serveCold) cell(stream, i int) (runCell, int, error) {
	cl := c.order(stream, i/coldBlock)[i%coldBlock]
	k := c.classes[cl]
	cell, err := newRunCell(k.spec, coldNs[k.n], seedBase(c.cfg.seed, stream)+uint64(i))
	return cell, cl, err
}

// setup fills the memory tier to its bound with keys the timed traffic
// never asks for. Each entry's value is the wire bytes of one real run of
// the same spec and n (one run per class, not per key), so the cache holds
// what the timed traffic would leave in it without set-up running 4096
// engine cells.
func (c *serveCold) setup() error {
	if err := c.start(); err != nil {
		return err
	}
	c.templates = make([][]byte, len(c.classes))
	base := seedBase(c.cfg.seed, streamColdFill) - uint64(len(c.classes))
	errs := make([]error, len(c.classes))
	var wg sync.WaitGroup
	for k, cl := range c.classes {
		wg.Add(1)
		go func(k int, cl coldClass) {
			defer wg.Done()
			cell, err := newRunCell(cl.spec, coldNs[cl.n], base+uint64(k))
			if err == nil {
				c.templates[k], _, err = cell.encodeLocal()
			}
			errs[k] = err
		}(k, cl)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("template runs: %w", err)
	}
	for j := 0; j < resultcache.DefaultMaxEntries; j++ {
		cell, cl, err := c.cell(streamColdFill, j)
		if err != nil {
			return err
		}
		c.d.cache.Put(cell.key, c.templates[cl])
		c.fillKeys = append(c.fillKeys, cell.key)
		c.fillClass = append(c.fillClass, cl)
	}
	if n := c.d.cache.Stats().Entries; n != resultcache.DefaultMaxEntries {
		return fmt.Errorf("cache fill left %d entries, want %d", n, resultcache.DefaultMaxEntries)
	}
	return nil
}

// op sends a fresh-seed request; its answer must be a computed (not
// cached) valid election of exactly the cell asked for.
func (c *serveCold) op(ci, i int) (time.Duration, bool) {
	cell, _, err := c.cell(streamColdOps, i)
	if err != nil {
		return 0, false
	}
	resp, lat, err := c.call(ci, cell.req)
	if err != nil || resp.CacheHit || resp.Result == nil {
		return lat, false
	}
	r := resp.Result
	ok := r.OK && r.Leader >= 0 && r.Algorithm == cell.req.Spec && r.N == cell.req.N && r.Seed == cell.req.Seed
	if ok && draw(c.cfg.seed, streamSample, i)%coldSampleEvery == 0 {
		b, err := elect.EncodeResult(*r)
		if err != nil {
			return lat, false
		}
		c.smu.Lock()
		if len(c.samples) < coldSamples {
			c.samples[i] = b
		}
		c.smu.Unlock()
	}
	return lat, ok
}

func (c *serveCold) check(ops int) []string {
	cs, ks := c.deltas(c.cache0, c.client0)
	var out []string
	if cs.Hits != 0 || cs.Misses != int64(ops) {
		out = append(out, fmt.Sprintf("serve-cold must miss the cache on every request: %d hits, %d misses over %d requests", cs.Hits, cs.Misses, ops))
	}
	if cs.Puts != int64(ops) || cs.Evictions != int64(ops) {
		out = append(out, fmt.Sprintf("every serve-cold Put must evict: %d puts, %d evictions over %d requests", cs.Puts, cs.Evictions, ops))
	}
	if ks.Retries != 0 {
		out = append(out, fmt.Sprintf("client retried %d times", ks.Retries))
	}
	return out
}

// sortedKeys returns a sample map's op indices in order.
func sortedKeys(m map[int][]byte) []int {
	idx := make([]int, 0, len(m))
	for i := range m {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}

// verify re-runs the sampled requests in process and compares bytes.
func (c *serveCold) verify(_, _ int) (int, error) {
	failed := 0
	for _, i := range sortedKeys(c.samples) {
		cell, _, err := c.cell(streamColdOps, i)
		if err != nil {
			return 0, err
		}
		b, _, err := cell.encodeLocal()
		if err != nil || !bytes.Equal(b, c.samples[i]) {
			failed++
		}
	}
	return failed, nil
}
