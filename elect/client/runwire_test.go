package client

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"cliquelect/elect"
)

// daemonRunBody is a POST /v1/run reply as the daemon writes it (the
// bytes writeJSON and the spliced writer agree on).
func daemonRunBody(t testing.TB, resp RunResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameTime reports whether two times decoded from the same text agree:
// equal instants at the same offset. A fractional-hour offset decodes into
// a fresh *time.Location each time, which reflect.DeepEqual tells apart.
func sameTime(a, b time.Time) bool {
	_, ao := a.Zone()
	_, bo := b.Zone()
	return a.Equal(b) && ao == bo
}

// checkRunDecode asserts that decodeRunResponse and json.Decoder agree on
// body: the same error, or deeply equal responses.
func checkRunDecode(t *testing.T, body []byte) {
	t.Helper()
	var got, want RunResponse
	err := decodeRunResponse(body, &got)
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("error %v, encoding/json's %v", err, wantErr)
	}
	if err != nil {
		return
	}
	for _, p := range []struct{ g, w *time.Time }{
		{&got.Job.Created, &want.Job.Created},
		{&got.Job.Started, &want.Job.Started},
		{&got.Job.Finished, &want.Job.Finished},
	} {
		if sameTime(*p.g, *p.w) {
			*p.g = *p.w
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode differs from encoding/json's:\n got %#v\nwant %#v", got, want)
	}
}

// TestRunResponseDecodeMatchesReference decodes daemon replies for real
// results — hit and miss, plain, round-traced and on a topology — plus an
// async reply and a failed job's, and checks that the hand path both takes
// the finished-run layout and agrees with encoding/json on every body.
func TestRunResponseDecodeMatchesReference(t *testing.T) {
	stamp := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	job := JobStatus{ID: "j0123456789ab", Kind: "run", Spec: "tradeoff", State: "done",
		Done: 1, Total: 1, Created: stamp, Started: stamp, Finished: stamp}
	runs := map[string][]elect.Option{
		"plain":      {elect.WithN(64), elect.WithSeed(2)},
		"roundtrace": {elect.WithN(16), elect.WithRoundTrace()},
		"topology":   {elect.WithN(16), elect.WithTopology("ring")},
	}
	for name, opts := range runs {
		spec, err := elect.Lookup("tradeoff")
		if name == "topology" {
			spec, err = elect.Lookup("kuttenmoses")
		}
		if err != nil {
			t.Fatal(err)
		}
		res, err := elect.Run(spec, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, hit := range []bool{false, true} {
			st := job
			st.CacheHit = hit
			body := daemonRunBody(t, RunResponse{Job: st, Result: &res, CacheHit: hit})
			var out RunResponse
			if !splitRunResponse(body, &out) {
				t.Fatalf("%s hit=%v: the hand path declined the daemon's layout:\n%s", name, hit, body)
			}
			checkRunDecode(t, body)
		}
	}
	queued := job
	queued.State, queued.Started, queued.Finished = "queued", time.Time{}, time.Time{}
	checkRunDecode(t, daemonRunBody(t, RunResponse{Job: queued}))
	failed := job
	failed.State, failed.Error = "failed", `bad "spec" {<&>}`
	checkRunDecode(t, daemonRunBody(t, RunResponse{Job: failed}))
}

// FuzzDecodeRunResponse: on any body, the client's POST /v1/run decode and
// json.Decoder agree on success, error and the decoded response.
func FuzzDecodeRunResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		checkRunDecode(t, body)
	})
}

// BenchmarkRunResponseDecode decodes a whole cache-hit POST /v1/run reply
// for tradeoff k=4 at n=512: the way the client does, and through
// encoding/json, which scans the Result's bytes once more around its
// UnmarshalJSON.
func BenchmarkRunResponseDecode(b *testing.B) {
	spec, err := elect.Lookup("tradeoff")
	if err != nil {
		b.Fatal(err)
	}
	res, err := elect.Run(spec, elect.WithN(512), elect.WithParams(elect.Params{K: 4}))
	if err != nil {
		b.Fatal(err)
	}
	body := daemonRunBody(b, RunResponse{
		Job:      JobStatus{ID: "j0123456789ab", Kind: "run", Spec: "tradeoff", State: "done", Done: 1, Total: 1, CacheHit: true},
		Result:   &res,
		CacheHit: true,
	})
	b.Run("client", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			var resp RunResponse
			if err := decodeRunResponse(body, &resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			var resp RunResponse
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
