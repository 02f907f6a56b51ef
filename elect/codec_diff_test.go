package elect

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// checkAgainstReference asserts that the hand codec agrees with the
// reference (encoding/json over resultJSON) on r: the same bytes or the
// same encode failure, and a decode of those bytes deeply equal to the
// reference's decode, nil-versus-empty slices included.
func checkAgainstReference(t *testing.T, name string, r Result) {
	t.Helper()
	got, err := EncodeResult(r)
	want, refErr := json.Marshal(resultJSON(r))
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: encode error %v, reference error %v", name, err, refErr)
	}
	if err != nil {
		if err.Error() != refErr.Error() {
			t.Errorf("%s: encode error %q, reference %q", name, err, refErr)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoding differs from the reference:\n got %s\nwant %s", name, got, want)
	}
	if _, hand := appendResult(nil, &r); hand && len(got) != cap(got) {
		t.Errorf("%s: encoding has spare capacity (len %d, cap %d)", name, len(got), cap(got))
	}
	back, err := DecodeResult(got)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	var ref resultJSON
	if err := json.Unmarshal(want, &ref); err != nil {
		t.Fatalf("%s: reference decode: %v", name, err)
	}
	if !reflect.DeepEqual(back, Result(ref)) {
		t.Fatalf("%s: decode differs from the reference:\n got %#v\nwant %#v", name, back, Result(ref))
	}
	// The same bytes inside an envelope go through the JSON methods.
	var env struct {
		R Result `json:"r"`
	}
	wrapped := append(append([]byte(`{"r":`), got...), '}')
	if err := json.Unmarshal(wrapped, &env); err != nil {
		t.Fatalf("%s: envelope decode: %v", name, err)
	}
	if !reflect.DeepEqual(env.R, Result(ref)) {
		t.Fatalf("%s: envelope decode differs from the reference", name)
	}
	if again, err := json.Marshal(env); err != nil || !bytes.Equal(again, wrapped) {
		t.Fatalf("%s: envelope encode differs: %s (%v)", name, again, err)
	}
}

// TestCodecMatchesReference runs every registered spec under every result
// shape it can produce (plain, traced, round-traced, faulted, on a
// topology) at several sizes, and checks the hand codec against the
// reference on each Result.
func TestCodecMatchesReference(t *testing.T) {
	shapes := []struct {
		name string
		opts []Option
		ok   func(Spec) bool
	}{
		{"plain", nil, nil},
		{"trace", []Option{WithTrace()}, func(s Spec) bool { return s.Model == Sync }},
		{"roundtrace", []Option{WithRoundTrace()}, nil},
		{"faults", []Option{WithFaults(FaultPlan{CrashRate: 0.1, DropRate: 0.05, DupRate: 0.05})},
			func(s Spec) bool { return s.FaultTolerant }},
		{"topology", []Option{WithTopology("ring")},
			func(s Spec) bool { return s.SupportsTopology("ring") }},
	}
	for _, spec := range Registry() {
		for _, shape := range shapes {
			if shape.ok != nil && !shape.ok(spec) {
				continue
			}
			for _, n := range []int{8, 33, 256} {
				opts := append([]Option{WithN(n), WithSeed(uint64(n) + 1)}, shape.opts...)
				res, err := Run(spec, opts...)
				if err != nil {
					t.Fatalf("%s/%s n=%d: %v", spec.Name, shape.name, n, err)
				}
				checkAgainstReference(t, spec.Name+"/"+shape.name, res)
			}
		}
	}
}

// TestCodecEdgeValues covers the values real runs rarely produce: nil and
// empty slices, extreme integers, float formats, strings that need
// escaping, and the invalid enums only the reference reports.
func TestCodecEdgeValues(t *testing.T) {
	base := Result{Algorithm: "tradeoff", Model: Sync, Engine: EngineSync, N: 2}
	cases := map[string]func(*Result){
		"zero slices": func(r *Result) {},
		"empty slices": func(r *Result) {
			r.IDs, r.Decisions, r.PerRound, r.Crashed = []int64{}, []Decision{}, []int64{}, []int{}
		},
		"extremes": func(r *Result) {
			r.Seed, r.LeaderID, r.Messages, r.N = math.MaxUint64, math.MinInt64, math.MaxInt64, math.MinInt
		},
		"ids":           func(r *Result) { r.IDs = []int64{-1, 0, math.MaxInt64, math.MinInt64} },
		"small float":   func(r *Result) { r.TimeUnits = 1.5e-7 },
		"large float":   func(r *Result) { r.TimeUnits = 2e21 },
		"neg zero":      func(r *Result) { r.TimeUnits = math.Copysign(0, -1) },
		"fraction":      func(r *Result) { r.TimeUnits = -12.375 },
		"escaped":       func(r *Result) { r.Algorithm, r.Topo = `a<b&"c"`, "ring\n" },
		"unicode":       func(r *Result) { r.Algorithm = "élection " },
		"topology":      func(r *Result) { r.Topo, r.Diameter, r.GraphEdges = "torus:4x4", 4, 32 },
		"async auto":    func(r *Result) { r.Model, r.Engine = Async, EngineAuto },
		"decisions":     func(r *Result) { r.Decisions = []Decision{Undecided, Leader, NonLeader} },
		"bad model":     func(r *Result) { r.Model = 0 },
		"bad engine":    func(r *Result) { r.Engine = 9 },
		"bad decision":  func(r *Result) { r.Decisions = []Decision{Leader, 7} },
		"nan":           func(r *Result) { r.TimeUnits = math.NaN() },
		"inf":           func(r *Result) { r.TimeUnits = math.Inf(-1) },
		"empty rounds":  func(r *Result) { r.RoundTrace = []RoundStat{} },
		"trace summary": func(r *Result) { r.Trace = &TraceSummary{Edges: 3, MaxComponent: 2, Components: 1, PortOpens: 4} },
	}
	for name, edit := range cases {
		r := base
		edit(&r)
		checkAgainstReference(t, name, r)
	}
}

// TestCodecCoversEveryField sets every Result field to a non-zero value, so
// a field added to Result without a hand encoding fails here instead of
// silently dropping off the wire. Trace and RoundTrace stay zero: the
// reference writes them.
func TestCodecCoversEveryField(t *testing.T) {
	var r Result
	v := reflect.ValueOf(&r).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		if name == "Trace" || name == "RoundTrace" {
			continue
		}
		if f.Kind() == reflect.Slice {
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
			f = f.Index(0)
		}
		switch f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Int, reflect.Int64:
			f.SetInt(1) // Model 1 is Sync, Engine 1 is EngineSync
		case reflect.Uint8, reflect.Uint64:
			f.SetUint(1) // Decision 1 is Leader
		case reflect.Float64:
			f.SetFloat(1.5)
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("Result.%s has kind %s: extend the hand codec and this test", name, f.Kind())
		}
	}
	if _, hand := appendResult(nil, &r); !hand {
		t.Fatal("the hand encoder declined a Result with every field set")
	}
	checkAgainstReference(t, "every field", r)
}

// TestUnmarshalJSONMerges pins encoding/json's merge semantics on the hand
// path: omitted optional fields keep the receiver's values.
func TestUnmarshalJSONMerges(t *testing.T) {
	data, err := EncodeResult(Result{Algorithm: "tradeoff", Model: Sync, Engine: EngineSync})
	if err != nil {
		t.Fatal(err)
	}
	r := Result{Topo: "ring", PerRound: []int64{1}}
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	ref := resultJSON{Topo: "ring", PerRound: []int64{1}}
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, Result(ref)) {
		t.Fatalf("merge differs from the reference:\n got %#v\nwant %#v", r, Result(ref))
	}
}

// FuzzDecodeResult is the wire-decode trust boundary: on any input,
// DecodeResult and the reference agree on failure (error text included)
// and on the decoded value, and re-encoding agrees too. Input the fast path
// accepts is canonical: it re-encodes to itself, which is what lets a
// server splice cached bytes into a reply in place of their re-encoding.
// The pooled check RunCached runs on a hit gives the same verdict, also
// in scratch that a larger Result, with per_round and crashed, left dirty.
func FuzzDecodeResult(f *testing.F) {
	large := Result{
		Algorithm: "spreadelect", Model: Sync, Engine: EngineSync, N: 64, Rounds: 5,
		PerRound: []int64{64, 32, 16, 8, 4}, Crashed: []int{1, 2, 3},
		Topo: "ring", Diameter: 32, GraphEdges: 64,
	}
	for i := range large.N {
		large.IDs = append(large.IDs, int64(1000+i))
		large.Decisions = append(large.Decisions, NonLeader)
	}
	largeWire, err := EncodeResult(large)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, canonical, err := DecodeCanonical(data)
		dirty, derr := DecodeResult(largeWire)
		if derr != nil || !isCanonical(largeWire) {
			t.Fatalf("the dirtying Result does not decode canonically: %v", derr)
		}
		if verdict := isCanonical(data); verdict != canonical {
			t.Fatalf("pooled check says canonical=%v, DecodeCanonical %v", verdict, canonical)
		}
		if verdict := decodeCanonical(data, &dirty); verdict != canonical {
			t.Fatalf("check in dirty scratch says canonical=%v, DecodeCanonical %v", verdict, canonical)
		}
		var ref resultJSON
		refErr := json.Unmarshal(data, &ref)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("DecodeResult error %v, reference error %v", err, refErr)
		}
		if err != nil {
			if want := "elect: decoding result: " + refErr.Error(); err.Error() != want {
				t.Fatalf("error %q, want %q", err, want)
			}
			return
		}
		if !reflect.DeepEqual(got, Result(ref)) {
			t.Fatalf("decode differs from the reference:\n got %#v\nwant %#v", got, Result(ref))
		}
		enc, encErr := EncodeResult(got)
		want, refEncErr := json.Marshal(ref)
		if (encErr == nil) != (refEncErr == nil) || !bytes.Equal(enc, want) {
			t.Fatalf("re-encoding differs from the reference:\n got %s (%v)\nwant %s (%v)", enc, encErr, want, refEncErr)
		}
		if canonical && !bytes.Equal(enc, data) {
			t.Fatalf("the fast path accepted non-canonical input:\n got %s\nre-encodes as %s", data, enc)
		}
	})
}

// TestDecodeCommaRunBounded: a malformed array that is one long run of
// commas fails like the reference, and the hand decoder's capacity hint
// sizes no slice beyond what a well-formed array of the same byte length
// (one digit and one comma per element) would need.
func TestDecodeCommaRunBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the bound is enforced in the non-race build")
	}
	const commas = 1 << 20
	data := []byte(`{"algorithm":"tradeoff","model":"sync","engine":"sync","n":2,"seed":7,"ids":[1` +
		strings.Repeat(",", commas) + `]}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeResult(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a comma run decoded without error")
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*(commas+2)/2+1<<16); got > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes, want at most %d", len(data), got, limit)
	}
}

// TestCodecAllocBudget pins the hand codec's allocations at n=512: the
// encoder makes its output slice and nothing per node, and the decoder
// makes one slice per array field and nothing per element.
func TestCodecAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget is enforced in the non-race build")
	}
	spec, err := Lookup("tradeoff")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec, WithN(512), WithParams(Params{K: 4}))
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	enc := testing.AllocsPerRun(50, func() {
		if _, err := EncodeResult(res); err != nil {
			t.Fatal(err)
		}
	})
	dec := testing.AllocsPerRun(50, func() {
		if _, err := DecodeResult(data); err != nil {
			t.Fatal(err)
		}
	})
	if enc > 2 {
		t.Errorf("EncodeResult allocated %.1f times per call, budget 2", enc)
	}
	if dec > 12 {
		t.Errorf("DecodeResult allocated %.1f times per call, budget 12", dec)
	}
}
