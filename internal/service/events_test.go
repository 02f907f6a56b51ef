package service

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"cliquelect/elect/client"
	"cliquelect/internal/resultcache"
)

// runOnce drives one synchronous election through the API so the journal
// and metrics have something to show.
func runOnce(t *testing.T, c *client.Client) {
	t.Helper()
	if _, err := c.Run(ctx(t), client.RunRequest{Spec: "tradeoff", N: 64, Seed: 7}); err != nil {
		t.Fatal(err)
	}
}

func TestEventsEndpoint(t *testing.T) {
	c, srv := newTestDaemon(t, Config{Instance: "n1"})
	runOnce(t, c)

	resp, err := c.Events(ctx(t), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Node != "n1" {
		t.Fatalf("node = %q, want n1", resp.Node)
	}
	kinds := map[string]bool{}
	for _, e := range resp.Events {
		kinds[e.Kind] = true
	}
	for _, want := range []string{"job.enqueue", "job.start", "job.done"} {
		if !kinds[want] {
			t.Fatalf("journal %v missing %q", kinds, want)
		}
	}
	// Each job's lifecycle is journaled in order: enqueue, start, done.
	jobSeqs := map[string][]string{}
	lastSeq := map[string]uint64{}
	for _, e := range resp.Events {
		id := e.Fields["job"]
		if id == "" {
			continue
		}
		if prev, ok := lastSeq[id]; ok && e.Seq <= prev {
			t.Fatalf("job %s: %s seq %d not after %d", id, e.Kind, e.Seq, prev)
		}
		lastSeq[id] = e.Seq
		jobSeqs[id] = append(jobSeqs[id], e.Kind)
	}
	for id, seq := range jobSeqs {
		if strings.Join(seq, ",") != "job.enqueue,job.start,job.done" {
			t.Fatalf("job %s journaled as %v", id, seq)
		}
	}

	// Paging: since the last seq → empty; limit=1 → exactly the newest.
	last := resp.Events[len(resp.Events)-1].Seq
	page, err := c.Events(ctx(t), last, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 0 {
		t.Fatalf("since=last returned %d events, want 0", len(page.Events))
	}
	one, err := c.Events(ctx(t), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Events) != 1 || one.Events[0].Seq != last {
		t.Fatalf("limit=1 = %+v, want the newest event", one.Events)
	}
	if srv.Events() == nil {
		t.Fatal("journal should be on by default")
	}
}

func TestEventsEndpointBadParamsAndDisabled(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	resp, err := http.Get(ts.URL + "/v1/events?since=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad since = %s, want 400", resp.Status)
	}

	off := New(Config{Events: -1})
	tsOff := httptest.NewServer(off.Handler())
	t.Cleanup(func() { tsOff.Close(); off.Close() })
	if off.Events() != nil {
		t.Fatal("Events: negative capacity should disable the journal")
	}
	resp, err = http.Get(tsOff.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled journal route = %s, want 404", resp.Status)
	}
}

func TestEventsStream(t *testing.T) {
	srv := New(Config{Instance: "n1"})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	srv.Events().Emit("campaign.won", "epoch", "3")
	resp, err := http.Get(ts.URL + "/v1/events/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	// Replay delivers the pre-connection event; a live Emit follows it.
	srv.Events().Emit("lease.grant", "epoch", "3")
	sc := bufio.NewScanner(resp.Body)
	var seen []string
	deadline := time.After(5 * time.Second)
	lines := make(chan string)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	for len(seen) < 2 {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("stream closed after %v", seen)
			}
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var e struct {
				Kind string `json:"kind"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
				t.Fatalf("bad SSE payload %q: %v", line, err)
			}
			seen = append(seen, e.Kind)
		case <-deadline:
			t.Fatalf("timed out with %v", seen)
		}
	}
	if seen[0] != "campaign.won" || seen[1] != "lease.grant" {
		t.Fatalf("streamed kinds = %v", seen)
	}
}

func TestFleetzStandalone(t *testing.T) {
	cache := resultcache.New()
	c, _ := newTestDaemon(t, Config{Instance: "solo", Cache: cache})
	runOnce(t, c)

	fz, err := c.Fleetz(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(fz.Nodes) != 1 {
		t.Fatalf("standalone fleetz has %d nodes, want 1", len(fz.Nodes))
	}
	n := fz.Nodes[0]
	if !n.Reachable || n.URL != "solo" {
		t.Fatalf("self node = %+v", n)
	}
	if n.SLO == nil || n.SLO.Verdict != "healthy" {
		t.Fatalf("self SLO = %+v, want healthy", n.SLO)
	}
	if fz.Health != "healthy" {
		t.Fatalf("fleet health = %q, want healthy", fz.Health)
	}
	if fz.Coordinators != 0 || !fz.EpochAgreement {
		t.Fatalf("standalone roll-up = %+v", fz)
	}
	if n.CacheHitRatio < 0 {
		t.Fatalf("cache hit ratio = %v, want >= 0 with a cache attached", n.CacheHitRatio)
	}
	if len(n.Routes) == 0 {
		t.Fatal("no route stats after serving requests")
	}
	var sawRun bool
	for _, rt := range n.Routes {
		if rt.Route == "/v1/run" && rt.Requests >= 1 {
			sawRun = true
		}
	}
	if !sawRun {
		t.Fatalf("routes %+v missing /v1/run", n.Routes)
	}
	if len(fz.Events) == 0 {
		t.Fatal("fleet snapshot carries no events")
	}
	// FleetzSelf is the peer-probe form: one node, no recursion.
	self, err := c.FleetzSelf(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if self.URL != "solo" {
		t.Fatalf("fleetz?self=1 node = %+v", self)
	}
}

func TestUnmatchedRouteLabel(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	resp, err := http.Get(ts.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path = %s, want 404", resp.Status)
	}
	body := scrape(t, ts.URL)
	if v := metricValue(t, body, `electd_requests_total{route="unmatched",method="GET",code="404"}`); v != 1 {
		t.Fatalf("unmatched route counter = %v, want 1", v)
	}
}

func TestTracesPaging(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	c := client.New(ts.URL)
	runOnce(t, c)
	runOnce(t, c)

	all, err := c.Traces(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 2 {
		t.Fatalf("have %d traces, want >= 2", len(all))
	}

	fetch := func(query string) (client.TracesResponse, int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/traces" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out client.TracesResponse
		json.NewDecoder(resp.Body).Decode(&out)
		return out, resp.StatusCode
	}

	if out, code := fetch("?limit=1"); code != http.StatusOK || len(out.Traces) != 1 {
		t.Fatalf("limit=1: code %d, %d traces, want one", code, len(out.Traces))
	}
	// ?since= pages past everything at or before that microsecond: the
	// oldest trace's start excludes itself but keeps strictly newer ones.
	oldest := all[len(all)-1]
	out, code := fetch("?since=" + strconv.FormatInt(oldest.StartUS, 10))
	if code != http.StatusOK {
		t.Fatalf("since: code %d", code)
	}
	// Every remaining trace is strictly newer — the oldest one (and
	// anything at its instant) paged out. Listing requests mint traces of
	// their own, so only the bound is stable, not the count.
	for _, tr := range out.Traces {
		if tr.StartUS <= oldest.StartUS {
			t.Fatalf("trace %s at %d leaked through since=%d", tr.ID, tr.StartUS, oldest.StartUS)
		}
		if tr.ID == oldest.ID {
			t.Fatalf("trace %s did not page out", tr.ID)
		}
	}
	if _, code := fetch("?limit=-3"); code != http.StatusBadRequest {
		t.Fatalf("bad limit: code %d, want 400", code)
	}
}
