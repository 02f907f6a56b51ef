package service

import (
	"context"
	"encoding/json"
	"errors"
	"maps"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"cliquelect/elect/client"
	"cliquelect/internal/control"
	"cliquelect/internal/control/chaostest"
)

// TestControlPlaneHTTPSurface drives the split-brain regression through the
// real HTTP API: a fleet elects on virtual time (the chaostest harness
// supplies clock and fabric), the old coordinator is partitioned away, a
// new epoch is minted, and a LATE chunk dispatch still stamped with the old
// token is rejected with 409 + the new epoch — countable on /metrics.
func TestControlPlaneHTTPSurface(t *testing.T) {
	const ttl = 12 * time.Second
	cl, err := chaostest.New(3, ttl)
	if err != nil {
		t.Fatal(err)
	}
	cl.Step(ttl)
	oldCoord := cl.Coordinator()
	if oldCoord == "" {
		t.Fatal("no coordinator after bootstrap")
	}
	oldToken := cl.Node(oldCoord).Token()

	// Mount the real service over one of the WORKER nodes — the daemon that
	// will later receive the deposed coordinator's stale dispatch.
	var workerURL string
	for _, url := range cl.URLs() {
		if url != oldCoord {
			workerURL = url
			break
		}
	}
	node := cl.Node(workerURL)
	srv := New(Config{Control: node})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	c := client.New(ts.URL)

	// /healthz carries the control-plane role and epoch.
	h, err := c.Health(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if h.Role != "worker" || h.Epoch != oldToken {
		t.Fatalf("healthz role=%q epoch=%d, want worker/%d", h.Role, h.Epoch, oldToken)
	}

	// /v1/coordinator answers who leads.
	co, err := c.Coordinator(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if co.Self != workerURL || co.Role != "worker" || co.Coordinator != oldCoord {
		t.Fatalf("coordinator view %+v, want self=%s coordinator=%s", co, workerURL, oldCoord)
	}

	// /v1/lease over HTTP: a renewal from the standing holder is granted, a
	// stale campaigner is rejected with the standing vote, and malformed
	// requests are 400s.
	if resp, err := c.Lease(ctx(t), client.LeaseRequest{Epoch: oldToken, Holder: oldCoord}); err != nil || !resp.Granted {
		t.Fatalf("renewal over HTTP: %+v err=%v", resp, err)
	}
	if resp, err := c.Lease(ctx(t), client.LeaseRequest{Epoch: oldToken, Holder: "http://usurper"}); err != nil || resp.Granted {
		t.Fatalf("usurper granted: %+v err=%v", resp, err)
	} else if resp.Holder != oldCoord {
		t.Fatalf("rejection hides the standing holder: %+v", resp)
	}
	if _, err := c.Lease(ctx(t), client.LeaseRequest{Epoch: 99}); err == nil {
		t.Fatal("holderless lease accepted")
	}

	// Fleet batches are coordinator-only: this worker must redirect.
	_, err = c.Batch(ctx(t), client.BatchRequest{
		Spec: "tradeoff", Ns: []int{16}, Seeds: []uint64{1}, Fleet: true,
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
		t.Fatalf("fleet batch on a worker: %v, want 409", err)
	}
	if apiErr.Coordinator != oldCoord {
		t.Fatalf("409 names coordinator %q, want %q", apiErr.Coordinator, oldCoord)
	}

	// Depose: partition the old coordinator, let the majority elect anew.
	cl.Partition([]string{oldCoord})
	cl.Step(ttl)
	newEpoch := node.Token()
	if newEpoch <= oldToken {
		t.Fatalf("no new epoch after partition: %d", newEpoch)
	}

	// The deposed coordinator's LATE dispatch: a chunk still stamped with
	// the old token. The daemon answers 409 with the new epoch and the new
	// coordinator, both on the wire error.
	chunkReq := client.ChunkRequest{
		Spec: "tradeoff", Ns: []int{16}, Seeds: []uint64{1, 2}, Start: 0, Count: 2,
		Fence: oldToken,
	}
	_, err = c.Chunk(ctx(t), chunkReq)
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
		t.Fatalf("stale chunk: %v, want 409", err)
	}
	if apiErr.Epoch != newEpoch {
		t.Fatalf("409 carries epoch %d, want %d", apiErr.Epoch, newEpoch)
	}

	// A chunk stamped with the CURRENT token computes.
	chunkReq.Fence = newEpoch
	resp, err := c.Chunk(ctx(t), chunkReq)
	if err != nil || len(resp.Results) != 2 {
		t.Fatalf("current-token chunk: %v results=%d", err, len(resp.Results))
	}

	// The rejection is countable: /metrics exposes the fence-reject counter
	// and the advanced epoch.
	body := scrape(t, ts.URL)
	assertMetric(t, body, "electd_control_fence_rejects_total", "1")
	assertMetric(t, body, "electd_control_epoch", strconv.FormatUint(newEpoch, 10))
	// The majority elected one of the two survivors; the gauge tracks
	// whichever way it went.
	isCoord := "0"
	if node.IsCoordinator() {
		isCoord = "1"
	}
	assertMetric(t, body, "electd_control_is_coordinator", isCoord)

	// And /healthz moved with it.
	if h, err := c.Health(ctx(t)); err != nil || h.Epoch != newEpoch {
		t.Fatalf("healthz after deposition: %+v err=%v", h, err)
	}
}

// TestFleetBatchWithoutControl: daemons outside any fleet refuse fleet
// batches outright (400, not a redirect).
func TestFleetBatchWithoutControl(t *testing.T) {
	c, _ := newTestDaemon(t, Config{})
	_, err := c.Batch(ctx(t), client.BatchRequest{
		Spec: "tradeoff", Ns: []int{16}, Seeds: []uint64{1}, Fleet: true,
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("fleet batch on a standalone daemon: %v, want 400", err)
	}
	// The control routes are not mounted at all on standalone daemons.
	if _, err := c.Coordinator(ctx(t)); err == nil {
		t.Fatal("standalone daemon served /v1/coordinator")
	}
}

// TestChunkFenceHeaderFallback: the fencing token also rides the
// X-Elect-Epoch header, so body-less proxies can fence.
func TestChunkFenceHeaderFallback(t *testing.T) {
	const ttl = 12 * time.Second
	cl, err := chaostest.New(3, ttl)
	if err != nil {
		t.Fatal(err)
	}
	cl.Step(ttl)
	url := cl.URLs()[0]
	srv := New(Config{Control: cl.Node(url)})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	// Stale token in the header only; body carries no fence field.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/chunk",
		strings.NewReader(`{"spec":"tradeoff","ns":[16],"seeds":[1],"start":0,"count":1}`))
	req.Header.Set("Content-Type", "application/json")
	// Token 0 would be legacy-accepted, so mint a newer epoch by hand and
	// claim token 1 — genuinely stale regardless of the bootstrap epoch.
	cl.Node(url).HandleLease(client.LeaseRequest{Epoch: cl.Node(url).Token() + 1, Holder: "http://x"}, cl.Clock.Now())
	req.Header.Set(client.FenceHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("header-fenced stale chunk: %d, want 409", resp.StatusCode)
	}

	// A malformed fence header is a 400 — it must NOT degrade to token 0,
	// which would sail through fencing as an unfenced legacy dispatch.
	req, _ = http.NewRequest("POST", ts.URL+"/v1/chunk",
		strings.NewReader(`{"spec":"tradeoff","ns":[16],"seeds":[1],"start":0,"count":1}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(client.FenceHeader, "not-a-token")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed fence header: %d, want 400", resp.StatusCode)
	}
}

func assertMetric(t *testing.T, body, name, want string) {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") {
			if got := strings.TrimSpace(strings.TrimPrefix(line, name)); got != want {
				t.Fatalf("%s = %s, want %s", name, got, want)
			}
			return
		}
	}
	t.Fatalf("metric %s not exposed", name)
}

// stepClock is a control.Clock a test moves by hand.
type stepClock struct{ now time.Time }

func (c *stepClock) Now() time.Time { return c.now }

// noTransport is a control.Transport with no peers reachable: a lone node
// that only answers lease requests never sends one.
type noTransport struct{}

func (noTransport) Probe(context.Context, string) error { return errors.New("no network") }

func (noTransport) Lease(context.Context, string, client.LeaseRequest) (*client.LeaseResponse, error) {
	return nil, errors.New("no network")
}

// FuzzLeaseBodies posts each line of the input as a POST /v1/lease body to
// one daemon whose control node is alone in its fleet and past its startup
// grace. Whatever the bodies, every answer is a 200 or a 400, no epoch is
// ever granted to two holders, granted epochs never go back, and the
// node's vote record (Node.Grants) and grant counter (Stats.Grants) match
// the fresh grants observed. A granted answer is a fresh grant the first
// time its epoch is seen and a renewal after, so a renewal the node counted
// as a fresh grant shows up in the counter.
func FuzzLeaseBodies(f *testing.F) {
	for _, bodies := range [][]string{
		{`{"epoch":1,"holder":"http://a"}`},                                    // grant
		{`{"epoch":1,"holder":"http://a"}`, `{"epoch":1,"holder":"http://a"}`}, // renewal
		{`{"epoch":5,"holder":"http://a"}`, `{"epoch":3,"holder":"http://b"}`}, // stale epoch
		{`{"epoch":2,"holder":"http://a"}`, `{"epoch":2,"holder":"http://b"}`}, // conflicting holder
		{`{"epoch":1,"holder":""}`},
		{`{"epoch":0,"holder":"http://a"}`},
		{`{"epoch":18446744073709551615,"holder":"http://a"}`, `{"epoch":18446744073709551615,"holder":"http://b"}`},
		{`not json`, `{"epoch":-1}`, `{"epoch":1.5,"holder":"http://a"}`},
	} {
		f.Add(strings.Join(bodies, "\n"))
	}
	f.Fuzz(func(t *testing.T, input string) {
		const ttl = time.Second
		clock := &stepClock{now: time.Unix(1e9, 0)}
		node, err := control.New(control.Config{
			Self: "http://self", LeaseTTL: ttl, Transport: noTransport{}, Clock: clock,
		})
		if err != nil {
			t.Fatal(err)
		}
		clock.now = clock.now.Add(ttl) // past the storeless startup grace
		srv := New(Config{Control: node})
		defer srv.Close()
		h := srv.Handler()

		granted := map[uint64]string{}
		var last uint64 // the latest granted epoch
		for _, body := range strings.Split(input, "\n") {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/lease", strings.NewReader(body)))
			switch rec.Code {
			case http.StatusBadRequest:
				continue
			case http.StatusOK:
			default:
				t.Fatalf("body %q answered %d: %s", body, rec.Code, rec.Body)
			}
			var resp client.LeaseResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("body %q: undecodable answer %q: %v", body, rec.Body, err)
			}
			if !resp.Granted {
				continue
			}
			if prev, ok := granted[resp.Epoch]; ok && prev != resp.Holder {
				t.Fatalf("epoch %d granted to %q and then to %q", resp.Epoch, prev, resp.Holder)
			}
			if resp.Epoch < last {
				t.Fatalf("epoch %d granted after epoch %d", resp.Epoch, last)
			}
			granted[resp.Epoch], last = resp.Holder, resp.Epoch
		}
		if got := node.Grants(); !maps.Equal(got, granted) {
			t.Fatalf("vote record %v, fresh grants observed %v", got, granted)
		}
		if got := node.Status().Grants; got != int64(len(granted)) {
			t.Fatalf("node counted %d grants, %d fresh grants observed", got, len(granted))
		}
	})
}
