package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cliquelect/internal/resultcache"
	"cliquelect/internal/service"
)

// daemon is one in-process electd: the service built from its public
// constructor with electd's default flags (memory result cache at its
// default bound, request tracing and the event journal on, request logs
// off, no control plane), served over a real loopback listener.
type daemon struct {
	srv   *service.Server
	cache *resultcache.Cache
	http  *http.Server
	url   string
	rec   *recorder // nil on untraced runs
	done  chan error
}

// startDaemon builds and starts one daemon. traced puts the benchmark's
// timing middleware around the service handler; it records nothing until
// switched on.
func startDaemon(traced bool) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	cache := resultcache.New(resultcache.WithMaxEntries(resultcache.DefaultMaxEntries))
	srv := service.New(service.Config{
		QueueDepth: 256, // electd's -queue default
		Cache:      cache,
		Instance:   ln.Addr().String(),
	})
	d := &daemon{
		srv: srv, cache: cache,
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	var h http.Handler = srv.Handler()
	if traced {
		d.rec = &recorder{next: h}
		h = d.rec
	}
	d.http = &http.Server{Handler: h}
	go func() { d.done <- d.http.Serve(ln) }()
	return d, nil
}

// close stops the listener, waits for the serve loop and drains the worker
// pool.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.srv.Close()
	return err
}

// interval is one timed call seen by a recorder or a timing transport.
type interval struct {
	start, end time.Time
	job        string // X-Job-Id of the response
	path       string
}

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// intervalLog is a switchable, concurrency-safe list of intervals.
type intervalLog struct {
	on  atomic.Bool
	mu  sync.Mutex
	ivs []interval
}

func (l *intervalLog) add(iv interval) {
	l.mu.Lock()
	l.ivs = append(l.ivs, iv)
	l.mu.Unlock()
}

// take returns the recorded intervals and clears the log.
func (l *intervalLog) take() []interval {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.ivs
	l.ivs = nil
	return out
}

// recorder is the benchmark's server-side timing middleware: wrapped around
// Server.Handler, it times each request from arrival at the handler to the
// handler's return and notes the job it created.
type recorder struct {
	intervalLog
	next http.Handler
}

func (r *recorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if !r.on.Load() {
		r.next.ServeHTTP(w, req)
		return
	}
	start := time.Now()
	r.next.ServeHTTP(w, req)
	r.add(interval{start: start, end: time.Now(), job: w.Header().Get("X-Job-Id"), path: req.URL.Path})
}

// timingTransport is the client-side counterpart for calls the benchmark
// does not make itself (distrib's chunk dispatches): it times each HTTP
// exchange from the request write to the close of the fully read response
// body.
type timingTransport struct {
	intervalLog
	next http.RoundTripper
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.on.Load() {
		return t.next.RoundTrip(req)
	}
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, t: t, iv: interval{
		start: start, job: resp.Header.Get("X-Job-Id"), path: req.URL.Path,
	}}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	t    *timingTransport
	iv   interval
	once sync.Once
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.iv.end = time.Now()
		b.t.add(b.iv)
	})
	return err
}
