// Package cliquelect is a reproduction of "Improved Tradeoffs for Leader
// Election" (Shay Kutten, Peter Robinson, Ming Ming Tan, Xianbin Zhu;
// PODC 2023, arXiv:2301.08235): every algorithm, baseline and lower-bound
// construction of the paper, implemented on simulated synchronous and
// asynchronous cliques under the KT0 clean-network model.
//
// The public entry point is the elect package — a registry of protocol
// specs, a single Run over all three execution engines, and a sharded
// parallel batch runner. Runnable walkthroughs live as godoc examples in
// the elect package: see ExampleRun, ExampleRunMany, ExampleRunCached and
// ExampleWithFaults (all compiled and run by go test).
//
//   - elect — public API: Registry/Lookup, each Spec's paper bound
//     (Spec.Bound, the one home of every theorem's explicit constant), Run
//     with functional options, unified Result, RunMany and RunRange grid
//     sweeps on one sharded executor with one range rule (ValidRange),
//     and fault injection
//     (WithFaults: deterministic crash-stop/drop/duplicate plans plus
//     adaptive adversaries, with OK semantics restricted to survivors).
//     Also the stable JSON wire codec (EncodeResult/EncodeBatchResult) and
//     the content-address machinery (Fingerprint, Cache, RunCached).
//   - elect/client — Go client for the electd daemon, and the daemon's
//     wire schema (shared with internal/service).
//
// # Serving elections
//
// cmd/electd is an election-as-a-service HTTP daemon: POST /v1/run and
// POST /v1/batch execute (or enqueue, with "async":true) elections on a
// bounded job queue + worker pool (internal/jobs); GET /v1/jobs/{id}
// reports a job and streams progress over SSE; GET /v1/specs lists the
// registry; /healthz reports job and cache counters.
//
// The serving layer leans on the determinism contract: EngineSync and
// EngineAsync reproduce byte-identical Results from identical inputs, so
// every deterministic run is memoizable. internal/resultcache stores
// encoded results under elect.Fingerprint content hashes (in-memory LRU +
// optional on-disk tier); repeated runs — the dominant shape of sweep
// traffic — are replayed byte-for-byte instead of re-executed. Live-engine
// runs and adaptive-adversary plans are uncacheable and bypass the cache.
// cmd/sweep shares the same cache via -cache DIR.
//
// The same contract powers distributed dispatch (internal/distrib): the
// sweep CLI's -workers flag shards a batch grid into deterministic chunks
// across a fleet of electd daemons (POST /v1/chunk), with in-flight load
// balancing, failover off dead workers and straggler re-dispatch —
// merging a BatchResult byte-identical to a purely local RunMany.
//
// The implementation lives under internal/:
//
//   - internal/core — the protocols (Theorems 3.10, 3.15, 3.16, 4.1,
//     5.1, 5.14 plus the [1], [14], [16] baselines).
//   - internal/simsync, internal/simasync — deterministic clique engines,
//     both wired into the fault-injection hooks.
//   - internal/faults — the seeded fault-injection subsystem (crash-stop at
//     a round/time, per-message drop and duplication, targeted first-k
//     drops, composable adaptive adversaries).
//   - internal/livenet — goroutine-per-node concurrent runtime.
//   - internal/lowerbound — executable adversaries for Theorems 3.8, 3.11,
//     3.16 and 4.2.
//   - internal/experiments — the Table-1 reproduction harness (E1..E13).
//   - internal/jobs, internal/resultcache, internal/service — the serving
//     layer behind cmd/electd (job queue, result cache, HTTP handlers).
//   - internal/obs — observability substrate: the metrics registry behind
//     GET /metrics and the distributed request-tracing layer (W3C
//     traceparent spans across client → daemon → job, GET /v1/traces,
//     Chrome trace-event export, sweep -trace-out waterfalls). Despite
//     the similar name, internal/trace is unrelated: it records the
//     paper's communication graph (Definition 3.1) for the lower-bound
//     machinery, while internal/obs traces serving-stack requests.
//   - internal/distrib — the distributed dispatch fabric: chunk
//     partitioner, worker registry, failover/straggler scheduler, merger.
//   - cmd/elect, cmd/sweep, cmd/experiments, cmd/lowerbound, cmd/electd —
//     CLIs; cmd/sweep prints message/time tables over k and, with -crash
//     and -drop, resilience tables (election-success count under swept
//     crash/drop rates), and its -json writes BENCH_<date>.json perf
//     artifacts, diffable against a prior file with -compare (exits
//     non-zero on >10% regressions).
//   - examples/ — runnable scenarios, each with a smoke test.
//
// # Performance
//
// The deterministic engines are built for large-n sweeps: pooled inbox
// arenas and send buffers (internal/proto), dense membership bitsets and
// flat open-addressing tables under the lazy port wirings
// (internal/portmap, internal/flatmap), a FIFO lane beside a
// boxing-free event heap in the async simulator, and work-stealing shards
// in elect.RunMany. A single tradeoff election at n = 2^20 completes in
// tens of seconds on one core. ARCHITECTURE.md fixes the layer stack and
// the determinism contract all of this preserves; PERFORMANCE.md documents
// the benchmark workflow, the BENCH_<date>.json -compare regression gate,
// and current numbers.
//
// See README.md for a tour and quickstart.
package cliquelect
