package client

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"cliquelect/elect"
	"cliquelect/internal/obs"
)

// daemonChunkBody is a POST /v1/chunk reply as the daemon writes it (the
// bytes writeJSON and the spliced writer agree on).
func daemonChunkBody(t testing.TB, resp ChunkResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkChunkDecode asserts that decodeChunkResponse and json.Decoder agree
// on body: the same error, or deeply equal responses once Wire, which
// encoding/json never sets, is set aside. Every byte slice kept in Wire
// must be exactly the canonical encoding of its Result.
func checkChunkDecode(t *testing.T, body []byte) {
	t.Helper()
	var got, want ChunkResponse
	err := decodeChunkResponse(body, &got)
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("error %v, encoding/json's %v", err, wantErr)
	}
	if err != nil {
		return
	}
	if got.Wire != nil && len(got.Wire) != len(got.Results) {
		t.Fatalf("%d wires for %d results", len(got.Wire), len(got.Results))
	}
	for i, wire := range got.Wire {
		if wire == nil {
			continue
		}
		canonical, err := elect.EncodeResult(got.Results[i])
		if err != nil || !bytes.Equal(wire, canonical) {
			t.Fatalf("result %d: kept wire %q, canonical %q (%v)", i, wire, canonical, err)
		}
	}
	got.Wire = nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode differs from encoding/json's:\n got %#v\nwant %#v", got, want)
	}
}

// chunkResults runs a few real cells: plain, round-traced (whose bytes the
// canonical decoder leaves to the reference) and on a topology.
func chunkResults(t testing.TB) []elect.Result {
	t.Helper()
	var out []elect.Result
	for _, c := range []struct {
		spec string
		opts []elect.Option
	}{
		{"tradeoff", []elect.Option{elect.WithN(64), elect.WithSeed(2)}},
		{"tradeoff", []elect.Option{elect.WithN(16), elect.WithRoundTrace()}},
		{"kuttenmoses", []elect.Option{elect.WithN(16), elect.WithTopology("ring")}},
	} {
		spec, err := elect.Lookup(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := elect.Run(spec, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

// TestChunkResponseDecodeMatchesReference decodes daemon replies for real
// results, with and without spans, and checks that the hand path takes the
// daemon's layout, keeps the bytes of exactly the canonical results, and
// agrees with encoding/json on every body.
func TestChunkResponseDecodeMatchesReference(t *testing.T) {
	results := chunkResults(t)
	sc := obs.NewSpanContext()
	spans := []obs.Span{
		{Trace: sc.Trace, ID: sc.Span, Name: "chunk.serve", Service: "electd", Start: 1, Dur: 2,
			Attrs: map[string]string{"job": `j"<&>"`}},
		{Trace: sc.Trace, ID: sc.Child().Span, Parent: sc.Span, Name: "job.exec", Service: "electd", Start: 3},
	}
	for _, resp := range []ChunkResponse{
		{Results: results},
		{Results: results, Spans: spans},
		{Results: results[:1]},
	} {
		body := daemonChunkBody(t, resp)
		var out ChunkResponse
		if !splitChunkResponse(body, &out) {
			t.Fatalf("the hand path declined the daemon's layout:\n%s", body)
		}
		for i, wire := range out.Wire {
			if roundTraced := out.Results[i].RoundTrace != nil; (wire == nil) != roundTraced {
				t.Fatalf("result %d (round-traced %v): kept %d wire bytes", i, roundTraced, len(wire))
			}
		}
		checkChunkDecode(t, body)
	}
	for _, body := range []string{
		`{"results":[]}` + "\n",
		`{"results":null}`,
		`{"spans":[],"results":[]}`,
		`{"results":[{}],"spans":null}`,
		`{"results":[{"n":1},{"n":2}]}` + "\n trailing",
		`{"results":[{"n":"x"}]}`,
		`{"results":[{"n":1}`,
	} {
		checkChunkDecode(t, []byte(body))
	}
}

// FuzzDecodeChunkResponse: on any body, the client's POST /v1/chunk decode
// and json.Decoder agree on success, error and the decoded response, and
// every result's kept bytes are its canonical encoding.
func FuzzDecodeChunkResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		checkChunkDecode(t, body)
	})
}

// BenchmarkChunkResponseDecode decodes an 8-result POST /v1/chunk reply
// for tradeoff k=4 at n=128: the way the client does, and through
// encoding/json, which scans each result's bytes once more around its
// UnmarshalJSON.
func BenchmarkChunkResponseDecode(b *testing.B) {
	spec, err := elect.Lookup("tradeoff")
	if err != nil {
		b.Fatal(err)
	}
	results, _, err := elect.RunRange(spec, elect.Batch{
		Ns: []int{128}, Seeds: elect.Seeds(1, 8),
		Options: []elect.Option{elect.WithParams(elect.Params{K: 4, D: 2, G: 1, Eps: 1.0 / 16})},
	}, 0, 8)
	if err != nil {
		b.Fatal(err)
	}
	body := daemonChunkBody(b, ChunkResponse{Results: results})
	b.Run("client", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			var resp ChunkResponse
			if err := decodeChunkResponse(body, &resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			var resp ChunkResponse
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
