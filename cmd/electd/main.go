// Command electd serves leader elections over HTTP: an election-as-a-service
// daemon with a bounded job queue, a worker pool over the elect engines, and
// a content-addressed result cache that turns repeated deterministic runs —
// the dominant shape of sweep traffic — into byte-identical replays.
//
//	electd -addr :8090 -cache-dir /var/cache/electd
//
//	curl -s localhost:8090/v1/specs
//	curl -s -X POST localhost:8090/v1/run \
//	     -d '{"spec":"tradeoff","n":1024,"seed":7,"params":{"k":4}}'
//	curl -s -X POST localhost:8090/v1/batch \
//	     -d '{"spec":"tradeoff","ns":[256,512],"seed_count":16,"async":true}'
//	curl -N -H 'Accept: text/event-stream' localhost:8090/v1/jobs/<id>
//	curl -s localhost:8090/healthz
//	curl -s localhost:8090/metrics
//	curl -s localhost:8090/v1/traces
//	curl -s localhost:8090/v1/traces/<trace-id>   # id from any X-Trace-Id header
//	curl -s localhost:8090/v1/events              # the event journal (?since=&limit=)
//	curl -N localhost:8090/v1/events/stream       # …streamed over SSE
//	curl -s localhost:8090/v1/fleetz              # federated fleet status (electtop renders it)
//
// With -peers, daemons form a self-electing HA fleet (internal/control):
// they elect a dispatch coordinator among themselves using the public elect
// API, the coordinator accepts {"fleet":true} batches and shards them over
// the survivors with fencing tokens, and any daemon answers
// GET /v1/coordinator with who currently leads. Give each daemon a
// -state-file so its lease votes survive kill -9 (without one, a restarted
// daemon waits out one lease TTL before voting again). See the "High
// availability" section of the README for a three-daemon walkthrough.
//
// See the "Serving elections" section of the README for the full API, and
// cliquelect/elect/client for the Go client.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cliquelect/internal/control"
	"cliquelect/internal/distrib"
	"cliquelect/internal/resultcache"
	"cliquelect/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "electd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until a termination signal (or, in
// tests, until stop closes). ready, when non-nil, receives the bound
// address once the listener is up.
func run(args []string, w io.Writer, ready chan<- string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("electd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8090", "listen address")
		workers      = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		batchWorkers = fs.Int("batch-workers", 0, "per-batch-job sweep parallelism cap; size workers*batch-workers to the cores available (0 = GOMAXPROCS per job)")
		queue        = fs.Int("queue", 256, "job queue depth beyond the running jobs")
		cacheDir     = fs.String("cache-dir", "", "persistent result-cache directory (empty = memory only)")
		cacheEntries = fs.Int("cache-entries", resultcache.DefaultMaxEntries, "in-memory result-cache bound (0 = unbounded)")
		noCache      = fs.Bool("no-cache", false, "disable the result cache entirely")
		quiet        = fs.Bool("quiet", false, "suppress per-request logging")
		pprofOn      = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		traceSpans   = fs.Int("trace-spans", 0, "request-trace span buffer capacity behind /v1/traces (0 = default, negative = disable tracing)")
		events       = fs.Int("events", 0, "event-journal capacity behind /v1/events (0 = default, negative = disable journaling)")
		instance     = fs.String("instance", "", "daemon name in trace spans, so merged fleet traces tell workers apart (empty = the listen address)")
		peers        = fs.String("peers", "", "comma-separated fleet peer URLs (self included); enables the self-electing control plane")
		leaseTTL     = fs.Duration("lease-ttl", control.DefaultLeaseTTL, "coordinator lease lifetime; a dead coordinator is replaced within one TTL")
		advertise    = fs.String("advertise", "", "this daemon's URL as listed in -peers (empty = the bound listen address)")
		stateFile    = fs.String("state-file", "", "durable control-plane vote state (JSON, one file per daemon); lease votes then stay at-most-once-per-epoch across kill -9 (empty = in-memory only, with a one-lease-TTL voting grace period after startup)")
	)
	fs.SetOutput(w)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := service.Config{
		Workers: *workers, QueueDepth: *queue, BatchWorkers: *batchWorkers,
		TraceSpans: *traceSpans, Events: *events, Instance: *instance,
	}
	if cfg.Instance == "" {
		cfg.Instance = *addr
	}
	if !*noCache {
		copts := []resultcache.Option{resultcache.WithMaxEntries(*cacheEntries)}
		if *cacheDir != "" {
			copts = append(copts, resultcache.WithDir(*cacheDir))
		}
		cfg.Cache = resultcache.New(copts...)
	}
	logger := log.New(w, "electd: ", log.LstdFlags)
	if !*quiet {
		cfg.Logf = logger.Printf
	}

	// Listen before assembling the control plane: the daemon's advertised
	// URL defaults to the bound address, which :0 test fleets only know
	// after the listener is up.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()

	var node *control.Node
	if *peers != "" {
		self := *advertise
		if self == "" {
			self = ln.Addr().String()
		}
		self = distrib.NormalizeURL(self)
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if u := distrib.NormalizeURL(p); u != "" {
				peerList = append(peerList, u)
			}
		}
		ctlCfg := control.Config{
			Self:      self,
			Peers:     peerList,
			LeaseTTL:  *leaseTTL,
			Transport: control.NewHTTPTransport(),
		}
		if *stateFile != "" {
			ctlCfg.Store = control.NewFileStore(*stateFile)
		}
		node, err = control.New(ctlCfg)
		if err != nil {
			return err
		}
		cfg.Control = node
	}

	srv := service.New(cfg)
	defer srv.Close()
	if node != nil {
		node.SetSpans(srv.Spans())
		node.SetEvents(srv.Events())
		ctlStop := make(chan struct{})
		defer close(ctlStop)
		go node.Run(ctlStop)
		state := *stateFile
		if state == "" {
			state = "memory (one-TTL startup voting grace)"
		}
		logger.Printf("control plane up: self=%s peers=%d lease-ttl=%s state=%s", node.Self(), len(node.Peers()), node.LeaseTTL(), state)
	}

	logger.Printf("serving on %s (cache: %s)", ln.Addr(), cacheDesc(*noCache, *cacheDir))
	if ready != nil {
		ready <- ln.Addr().String()
	}

	handler := srv.Handler()
	if *pprofOn {
		// The API middleware must not wrap the profiler (its requests would
		// pollute the route metrics), so pprof mounts on an outer mux that
		// falls through to the service handler.
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", handler)
		handler = outer
		logger.Printf("pprof mounted on /debug/pprof/")
	}
	httpSrv := &http.Server{Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	case <-stop:
	}
	logger.Printf("shutting down")
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shutCancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

func cacheDesc(disabled bool, dir string) string {
	switch {
	case disabled:
		return "disabled"
	case dir != "":
		return "memory + " + dir
	}
	return "memory"
}
