// Package client is the Go client for electd, the election-as-a-service
// daemon (cmd/electd), and the home of the daemon's wire schema (wire.go),
// which the server side imports too.
//
//	c := client.New("http://localhost:8090")
//	resp, err := c.Run(ctx, client.RunRequest{Spec: "tradeoff", N: 1024, Seed: 7})
//	fmt.Println(resp.Result.LeaderID, resp.CacheHit)
//
// Asynchronous jobs stream progress over SSE:
//
//	st, _ := c.SubmitBatch(ctx, client.BatchRequest{Spec: "tradeoff", Ns: []int{256, 512}, SeedCount: 32})
//	final, err := c.Stream(ctx, st.ID, func(s client.JobStatus) { fmt.Println(s.Done, "/", s.Total) })
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cliquelect/elect"
	"cliquelect/internal/obs"
	"cliquelect/internal/xrand"
)

// Client talks to one electd base URL. The zero value is not usable;
// construct with New. Clients are safe for concurrent use.
type Client struct {
	base string
	http *http.Client

	// retry policy for transient failures (see WithRetry).
	retryAttempts int
	retryBase     time.Duration
	jitterSeed    uint64
	jitterCalls   atomic.Uint64

	// spans receives client-side request and attempt spans (see
	// WithSpanCollector); nil drops them, but a traced context still
	// propagates its traceparent to the daemon.
	spans *obs.SpanCollector

	// lifetime retry telemetry (see Stats).
	attempts     atomic.Int64
	retries      atomic.Int64
	backoffNanos atomic.Int64
}

// ClientStats is a client's lifetime retry telemetry: how many HTTP tries
// it made, how many of them were retries of a transient failure, and the
// total backoff it slept between tries. The distrib fleet aggregates every
// worker's stats into its sweep summary.
type ClientStats struct {
	Attempts int64
	Retries  int64
	Backoff  time.Duration
}

// Stats returns a point-in-time snapshot of the client's retry telemetry.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Attempts: c.attempts.Load(),
		Retries:  c.retries.Load(),
		Backoff:  time.Duration(c.backoffNanos.Load()),
	}
}

// Retry defaults: every request is tried up to 3 times, backing off
// exponentially from 100ms and never sleeping longer than 2s between tries.
// Each sleep is jittered by ±20% (RetryJitter) so a fleet of clients
// retrying against the same restarted daemon spreads out instead of
// hammering it in lockstep.
const (
	DefaultRetryAttempts = 3
	DefaultRetryBase     = 100 * time.Millisecond
	maxRetryBackoff      = 2 * time.Second
	// RetryJitter is the relative half-width of the backoff jitter window:
	// every sleep is scaled by a seeded uniform factor in [1-RetryJitter,
	// 1+RetryJitter].
	RetryJitter = 0.20
)

// ClientOption configures New.
type ClientOption func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(h *http.Client) ClientOption { return func(c *Client) { c.http = h } }

// WithRetry overrides the transient-failure retry policy: attempts is the
// total number of tries (1 disables retrying), base the first backoff
// delay. Only connection-level errors and 502/503/504 answers are retried —
// all electd requests are safe to repeat (runs are deterministic and
// content-addressed) — so a fleet client rides out worker restarts instead
// of failing the first sweep chunk it dispatches.
func WithRetry(attempts int, base time.Duration) ClientOption {
	return func(c *Client) {
		if attempts >= 1 {
			c.retryAttempts = attempts
		}
		if base > 0 {
			c.retryBase = base
		}
	}
}

// WithSpanCollector directs the client's request and per-attempt spans into
// col (typically shared with the process's other components, e.g. the
// distrib fleet coordinator). Independent of the collector, a request whose
// context carries an obs.SpanContext always sends a W3C traceparent header
// so the daemon joins the caller's trace; with a collector but no inbound
// context, each request roots a fresh trace.
func WithSpanCollector(col *obs.SpanCollector) ClientOption {
	return func(c *Client) { c.spans = col }
}

// New builds a client for the daemon at base, e.g. "http://localhost:8090".
func New(base string, opts ...ClientOption) *Client {
	c := &Client{
		base:          strings.TrimRight(base, "/"),
		http:          &http.Client{},
		retryAttempts: DefaultRetryAttempts,
		retryBase:     DefaultRetryBase,
	}
	// FNV-1a over the base URL: a stable per-worker jitter seed, so two
	// clients of the same daemon sleep alike across runs but clients of
	// different workers decorrelate.
	seed := uint64(14695981039346656037)
	for i := 0; i < len(c.base); i++ {
		seed = (seed ^ uint64(c.base[i])) * 1099511628211
	}
	c.jitterSeed = seed
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a non-2xx daemon answer. Fencing rejections (409) carry the
// daemon's current Epoch and believed Coordinator from the error body.
type APIError struct {
	StatusCode  int
	Message     string
	Epoch       uint64
	Coordinator string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("electd: %s (HTTP %d)", e.Message, e.StatusCode)
}

// FenceHeader is the request header carrying a dispatched chunk's fencing
// token (the coordinator's election epoch), mirroring ChunkRequest.Fence.
const FenceHeader = "X-Elect-Epoch"

// Run executes one election synchronously and returns its result. The
// request's Async field is forced off; use Submit for fire-and-poll.
func (c *Client) Run(ctx context.Context, req RunRequest) (*RunResponse, error) {
	req.Async = false
	var out RunResponse
	if err := c.do(ctx, http.MethodPost, "/v1/run", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Submit enqueues one election and returns the queued job immediately.
func (c *Client) Submit(ctx context.Context, req RunRequest) (*JobStatus, error) {
	req.Async = true
	var out RunResponse
	if err := c.do(ctx, http.MethodPost, "/v1/run", req, &out); err != nil {
		return nil, err
	}
	return &out.Job, nil
}

// Batch executes a sweep synchronously and returns its aggregate result.
func (c *Client) Batch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	req.Async = false
	var out BatchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/batch", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SubmitBatch enqueues a sweep and returns the queued job immediately.
func (c *Client) SubmitBatch(ctx context.Context, req BatchRequest) (*JobStatus, error) {
	req.Async = true
	var out BatchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/batch", req, &out); err != nil {
		return nil, err
	}
	return &out.Job, nil
}

// Chunk executes a contiguous cell range of a batch grid synchronously and
// returns the per-cell results. This is the worker-side call of distributed
// dispatch (internal/distrib); the request names the full grid so every
// worker computes cells under identical indexing.
func (c *Client) Chunk(ctx context.Context, req ChunkRequest) (*ChunkResponse, error) {
	var hdr map[string]string
	if req.Fence > 0 {
		// The fencing token rides both the body and the header, so proxies
		// and request logs can see it without parsing JSON.
		hdr = map[string]string{FenceHeader: strconv.FormatUint(req.Fence, 10)}
	}
	var out ChunkResponse
	if err := c.doHdr(ctx, http.MethodPost, "/v1/chunk", hdr, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Lease delivers a control-plane lease request (grant or renewal) to the
// daemon. A non-granted verdict is a 200 with Granted false, not an error;
// see internal/control for the protocol.
func (c *Client) Lease(ctx context.Context, req LeaseRequest) (*LeaseResponse, error) {
	var out LeaseResponse
	if err := c.do(ctx, http.MethodPost, "/v1/lease", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Coordinator reports who the daemon believes leads its fleet (404 on
// daemons running without a control plane).
func (c *Client) Coordinator(ctx context.Context) (*CoordinatorResponse, error) {
	var out CoordinatorResponse
	if err := c.do(ctx, http.MethodGet, "/v1/coordinator", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Job fetches one job, including its result once terminal.
func (c *Client) Job(ctx context.Context, id string) (*JobResponse, error) {
	var out JobResponse
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Jobs lists every job the daemon knows.
func (c *Client) Jobs(ctx context.Context) ([]JobStatus, error) {
	var out JobsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// Cancel requests cancellation of a job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil)
}

// Specs lists the registered protocols.
func (c *Client) Specs(ctx context.Context) ([]SpecInfo, error) {
	var out SpecsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/specs", nil, &out); err != nil {
		return nil, err
	}
	return out.Specs, nil
}

// Traces lists the daemon's recent request traces, newest first.
func (c *Client) Traces(ctx context.Context) ([]TraceSummary, error) {
	var out TracesResponse
	if err := c.do(ctx, http.MethodGet, "/v1/traces", nil, &out); err != nil {
		return nil, err
	}
	return out.Traces, nil
}

// Trace fetches every span the daemon holds for one trace id.
func (c *Client) Trace(ctx context.Context, id string) (*TraceResponse, error) {
	var out TraceResponse
	if err := c.do(ctx, http.MethodGet, "/v1/traces/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Events fetches the daemon's journal: events with sequence > since,
// oldest first, at most limit of the newest (0 means the server default).
func (c *Client) Events(ctx context.Context, since uint64, limit int) (*EventsResponse, error) {
	path := "/v1/events"
	q := url.Values{}
	if since > 0 {
		q.Set("since", strconv.FormatUint(since, 10))
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out EventsResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Fleetz fetches the daemon's merged fleet snapshot (every configured peer
// probed and rolled up) — what electtop renders.
func (c *Client) Fleetz(ctx context.Context) (*FleetzResponse, error) {
	var out FleetzResponse
	if err := c.do(ctx, http.MethodGet, "/v1/fleetz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// FleetzSelf fetches only the daemon's own NodeStatus (?self=1) — the
// probe daemons send each other while building a merged snapshot, kept
// recursion-free by construction.
func (c *Client) FleetzSelf(ctx context.Context) (*NodeStatus, error) {
	var out FleetzResponse
	if err := c.do(ctx, http.MethodGet, "/v1/fleetz?self=1", nil, &out); err != nil {
		return nil, err
	}
	if len(out.Nodes) != 1 {
		return nil, fmt.Errorf("client: fleetz?self=1 returned %d nodes, want 1", len(out.Nodes))
	}
	return &out.Nodes[0], nil
}

// Health fetches the daemon's health and counters.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var out Health
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Wait polls a job until it is terminal (or ctx expires) and returns the
// final JobResponse. poll <= 0 means 100ms.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*JobResponse, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		resp, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if resp.Job.Terminal() {
			return resp, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Stream consumes the job's SSE progress feed, invoking fn (if non-nil) for
// every status event, and returns the final JobResponse once the job is
// terminal. It needs no polling: the daemon pushes each progress change.
func (c *Client) Stream(ctx context.Context, id string, fn func(JobStatus)) (*JobResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data:") {
			continue // event: lines, comments, keep-alives, blank separators
		}
		var st JobStatus
		if err := json.Unmarshal([]byte(strings.TrimSpace(line[len("data:"):])), &st); err != nil {
			return nil, fmt.Errorf("electd: bad SSE payload: %w", err)
		}
		if fn != nil {
			fn(st)
		}
		if st.Terminal() {
			return c.Job(ctx, id)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("electd: SSE stream ended before job %s finished", id)
}

// do performs one JSON round trip, retrying transient failures —
// connection-level errors and 502/503/504 answers (a restarting or
// momentarily saturated daemon) — with capped, ±20%-jittered exponential
// backoff. Definite answers (2xx, 4xx, 422, …) are never retried, and a
// canceled context aborts the loop immediately.
//
// When the context carries an obs.SpanContext (or a collector is attached),
// the whole call becomes a client.request span, every try a client.attempt
// child tagged with its attempt number and preceding backoff, and each try's
// traceparent header carries that attempt's context — so a retried request
// shows up server-side as sibling subtrees of one attempt each.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return c.doHdr(ctx, method, path, nil, in, out)
}

// doHdr is do with extra request headers (the fencing token on /v1/chunk).
func (c *Client) doHdr(ctx context.Context, method, path string, hdr map[string]string, in, out any) error {
	var data []byte
	if in != nil {
		var err error
		if data, err = json.Marshal(in); err != nil {
			return err
		}
	}
	parent := obs.SpanFromContext(ctx)
	traced := parent.Valid() || c.spans != nil
	var reqSC obs.SpanContext
	tries := 0
	if traced {
		reqSC = parent.Child()
		began := time.Now()
		defer func() {
			c.spans.Add(obs.NewSpan(reqSC, parent.Span, "client.request", "client",
				began, time.Since(began), map[string]string{
					"method": method, "path": path, "attempts": strconv.Itoa(tries),
				}))
		}()
	}
	var lastErr error
	var jitter *xrand.RNG
	backoff := c.retryBase
	for attempt := 0; attempt < c.retryAttempts; attempt++ {
		var slept time.Duration
		if attempt > 0 {
			if jitter == nil {
				// One jitter stream per request that actually retries, advanced
				// by a client-wide counter so concurrent requests decorrelate.
				jitter = xrand.New(c.jitterSeed + c.jitterCalls.Add(1))
			}
			slept = jitterDelay(backoff, jitter)
			c.retries.Add(1)
			c.backoffNanos.Add(int64(slept))
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(slept):
			}
			backoff = min(2*backoff, maxRetryBackoff)
		}
		c.attempts.Add(1)
		tries++
		var body io.Reader
		if in != nil {
			body = bytes.NewReader(data)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
		if err != nil {
			return err
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		var attemptSC obs.SpanContext
		var tryBegan time.Time
		if traced {
			attemptSC = reqSC.Child()
			tryBegan = time.Now()
			req.Header.Set("traceparent", attemptSC.Traceparent())
		}
		resp, err := c.http.Do(req)
		if err != nil {
			c.attemptSpan(attemptSC, reqSC, tryBegan, attempt, slept, "error")
			if ctx.Err() != nil {
				return err
			}
			lastErr = err // connection refused/reset, DNS, ...: retryable
			continue
		}
		c.attemptSpan(attemptSC, reqSC, tryBegan, attempt, slept, strconv.Itoa(resp.StatusCode))
		if TransientStatus(resp.StatusCode) {
			lastErr = decodeError(resp)
			resp.Body.Close()
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode < 200 || resp.StatusCode > 299 {
			return decodeError(resp)
		}
		if out == nil {
			return nil
		}
		switch out := out.(type) {
		case *RunResponse:
			var body []byte
			if body, err = readBody(resp); err == nil {
				err = decodeRunResponse(body, out)
			}
		case *ChunkResponse:
			var body []byte
			if body, err = readBody(resp); err == nil {
				err = decodeChunkResponse(body, out)
			}
		default:
			err = json.NewDecoder(resp.Body).Decode(out)
		}
		if err != nil {
			return fmt.Errorf("electd: decoding %s %s response: %w", method, path, err)
		}
		return nil
	}
	return lastErr
}

// attemptSpan records one HTTP try as a child of the request span; a no-op
// for untraced requests (zero attempt context).
func (c *Client) attemptSpan(sc, parent obs.SpanContext, began time.Time, attempt int, backoff time.Duration, outcome string) {
	if !sc.Valid() {
		return
	}
	attrs := map[string]string{
		"attempt": strconv.Itoa(attempt + 1), "outcome": outcome,
	}
	if backoff > 0 {
		attrs["backoff"] = backoff.String()
	}
	c.spans.Add(obs.NewSpan(sc, parent.Span, "client.attempt", "client", began, time.Since(began), attrs))
}

// jitterDelay scales one backoff sleep by a uniform factor in
// [1-RetryJitter, 1+RetryJitter], capped at maxRetryBackoff: lockstep
// clients spread out while every delay stays within 20% of the nominal
// schedule (and under the cap), so retry budgets remain predictable.
func jitterDelay(backoff time.Duration, rng *xrand.RNG) time.Duration {
	factor := 1 - RetryJitter + 2*RetryJitter*rng.Float64()
	return min(time.Duration(float64(backoff)*factor), maxRetryBackoff)
}

// TransientStatus reports daemon answers worth repeating against the same
// or another worker: gateway failures and explicit back-pressure (electd's
// full queue is a 503 + Retry-After). It is the single authority on
// transience — the client's retry loop and the distrib fleet's
// abort-vs-failover decision both consult it, so the two cannot drift.
func TransientStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout
}

func decodeError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 64*1024))
	var e ErrorResponse
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return &APIError{
			StatusCode: resp.StatusCode, Message: e.Error,
			Epoch: e.Epoch, Coordinator: e.Coordinator,
		}
	}
	return &APIError{StatusCode: resp.StatusCode, Message: strings.TrimSpace(string(data))}
}

// maxSizedBody caps how much a response's Content-Length may make
// readBody allocate up front; a larger body grows as it arrives.
const maxSizedBody = 16 << 20

// readBody reads a response body whole, into one buffer of the announced
// Content-Length when there is one.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxSizedBody {
		body := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, body); err != nil {
			return nil, err
		}
		return body, nil
	}
	return io.ReadAll(resp.Body)
}

// decodeRunResponse decodes a POST /v1/run reply into a zero out. The
// layout the daemon writes for a finished run,
// {"job":{...},"result":{...},"cache_hit":B} and a newline, is split by
// hand, so the result's bytes are scanned once, by elect.DecodeResult,
// instead of once more by encoding/json around it. Every other body, and
// any span that fails to decode, goes through json.Decoder as it always
// has, so values, errors and the indifference to trailing data are
// encoding/json's.
func decodeRunResponse(body []byte, out *RunResponse) error {
	if splitRunResponse(body, out) {
		return nil
	}
	*out = RunResponse{}
	return json.NewDecoder(bytes.NewReader(body)).Decode(out)
}

// splitRunResponse is decodeRunResponse's hand path; it reports false,
// with out in any state, on a body it does not take.
func splitRunResponse(body []byte, out *RunResponse) bool {
	rest, ok := bytes.CutPrefix(body, []byte(`{"job":`))
	if !ok {
		return false
	}
	end := objectEnd(rest)
	if end < 0 {
		return false
	}
	job := rest[:end]
	if rest, ok = bytes.CutPrefix(rest[end:], []byte(`,"result":`)); !ok {
		return false
	}
	rest = bytes.TrimSuffix(rest, []byte("\n"))
	if rest, ok = bytes.CutSuffix(rest, []byte(`,"cache_hit":true}`)); ok {
		out.CacheHit = true
	} else if rest, ok = bytes.CutSuffix(rest, []byte(`,"cache_hit":false}`)); !ok {
		return false
	}
	if json.Unmarshal(job, &out.Job) != nil {
		return false
	}
	if string(bytes.Trim(rest, " \t\r\n")) == "null" {
		return true // out.Result stays nil, as encoding/json leaves it
	}
	res, err := elect.DecodeResult(rest)
	if err != nil {
		return false
	}
	out.Result = &res
	return true
}

// decodeChunkResponse decodes a POST /v1/chunk reply into a zero out. The
// layout the daemon writes, {"results":[{...},...]} with an optional
// ,"spans":[...] before the closing brace, and a newline, is split by
// hand, so each result's bytes are scanned once, by elect.DecodeCanonical,
// and kept in out.Wire when canonical. Every other body, and any part that
// fails to decode, goes through json.Decoder, as decodeRunResponse does.
func decodeChunkResponse(body []byte, out *ChunkResponse) error {
	if splitChunkResponse(body, out) {
		return nil
	}
	*out = ChunkResponse{}
	return json.NewDecoder(bytes.NewReader(body)).Decode(out)
}

// splitChunkResponse is decodeChunkResponse's hand path; it reports false,
// with out in any state, on a body it does not take.
func splitChunkResponse(body []byte, out *ChunkResponse) bool {
	rest, ok := bytes.CutPrefix(body, []byte(`{"results":[`))
	if !ok {
		return false
	}
	var elems [][]byte
	for {
		end := objectEnd(rest)
		if end < 0 {
			return false
		}
		elems = append(elems, rest[:end:end])
		if rest = rest[end:]; len(rest) == 0 || rest[0] != ',' {
			break
		}
		rest = rest[1:]
	}
	if rest, ok = bytes.CutPrefix(rest, []byte(`]`)); !ok {
		return false
	}
	if spans, ok := bytes.CutPrefix(rest, []byte(`,"spans":`)); ok {
		end := objectEnd(spans)
		if end < 0 || json.Unmarshal(spans[:end], &out.Spans) != nil {
			return false
		}
		rest = spans[end:]
	}
	if string(rest) != "}\n" && string(rest) != "}" {
		return false
	}
	out.Results = make([]elect.Result, len(elems))
	for i, elem := range elems {
		res, canonical, err := elect.DecodeCanonical(elem)
		if err != nil {
			return false
		}
		out.Results[i] = res
		if !canonical {
			elems[i] = nil
		}
	}
	out.Wire = elems
	return true
}

// objectEnd returns the length of the JSON object or array data starts
// with, or -1. It matches brackets outside strings without validating
// anything else: whatever it measures is then decoded, which rejects
// invalid JSON.
func objectEnd(data []byte) int {
	if len(data) == 0 || data[0] != '{' && data[0] != '[' {
		return -1
	}
	depth, inString := 0, false
	for i := 0; i < len(data); i++ {
		c := data[i]
		switch {
		case inString && c == '\\':
			i++
		case c == '"':
			inString = !inString
		case inString:
		case c == '{' || c == '[':
			depth++
		case c == '}' || c == ']':
			if depth--; depth == 0 {
				return i + 1
			}
		}
	}
	return -1
}
