package elect

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
)

// This file is the stable JSON wire codec for Result and BatchResult: the
// byte format stored by the result cache, written by cmd/sweep -json
// consumers, and served by the electd daemon. The format is versioned by
// convention rather than by envelope: field names and enum spellings below
// are frozen (v1); additions are allowed, renames and retypes are not.
// Encoding is canonical — the same Result always encodes to the same bytes
// — which is what lets the cache promise byte-identical replays of
// deterministic runs.
//
// Result has a hand-written codec for the canonical layout: the encoder
// writes the fields in the fixed v1 order below, and the decoder reads
// exactly that byte layout in one pass. The reference for both is
// resultJSON, encoding/json's reflective view of Result's tags. Whatever
// the hand codec does not write or recognise goes to the reference —
// traces, round traces, invalid enums, non-finite floats, strings that need
// escaping, and on the decode side whitespace, reordered, unknown or
// escaped keys, and every malformed input — so acceptance rules, error
// text and bytes are the reference's by construction.

// resultJSON is Result without its JSON methods: the reference codec, and
// the oracle the codec tests compare the hand codec against.
type resultJSON Result

// MarshalText encodes the model as its name ("sync" or "async").
func (m Model) MarshalText() ([]byte, error) {
	if m != Sync && m != Async {
		return nil, fmt.Errorf("elect: cannot encode invalid model %d", int(m))
	}
	return []byte(m.String()), nil
}

// UnmarshalText decodes a model name written by MarshalText.
func (m *Model) UnmarshalText(text []byte) error {
	switch string(text) {
	case "sync":
		*m = Sync
	case "async":
		*m = Async
	default:
		return fmt.Errorf("elect: unknown model %q (sync, async)", text)
	}
	return nil
}

// MarshalText encodes the engine as its name ("auto", "sync", "async",
// "live").
func (e Engine) MarshalText() ([]byte, error) {
	if e < EngineAuto || e > EngineLive {
		return nil, fmt.Errorf("elect: cannot encode invalid engine %d", int(e))
	}
	return []byte(e.String()), nil
}

// UnmarshalText decodes an engine name; it accepts exactly what ParseEngine
// accepts.
func (e *Engine) UnmarshalText(text []byte) error {
	v, err := ParseEngine(string(text))
	if err != nil {
		return err
	}
	*e = v
	return nil
}

// MarshalJSON encodes r in the v1 wire form; see EncodeResult.
func (r Result) MarshalJSON() ([]byte, error) { return EncodeResult(r) }

// UnmarshalJSON decodes v1 wire bytes into r with encoding/json's semantics:
// fields absent from data keep their values, and "null" is a no-op.
func (r *Result) UnmarshalJSON(data []byte) error {
	tmp := *r
	if decodeCanonical(data, &tmp) {
		*r = tmp
		return nil
	}
	return json.Unmarshal(data, (*resultJSON)(r))
}

// EncodeResult renders r in the stable v1 wire form. The encoding is
// canonical: equal Results produce identical bytes.
func EncodeResult(r Result) ([]byte, error) {
	bp := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(bp)
	b, ok := appendResult((*bp)[:0], &r)
	*bp = b
	if !ok {
		return json.Marshal(resultJSON(r))
	}
	// Callers keep the result, so it gets its own exact-length slice.
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// DecodeResult parses wire bytes written by EncodeResult. Unknown fields are
// ignored, so older binaries can read results written by newer ones.
func DecodeResult(data []byte) (Result, error) {
	r, _, err := DecodeCanonical(data)
	return r, err
}

// DecodeCanonical is DecodeResult that also reports whether data took the
// canonical fast path, which guarantees that EncodeResult of the decoded
// Result gives back exactly data: a caller may then store or splice data
// in place of the Result's encoding.
func DecodeCanonical(data []byte) (r Result, canonical bool, err error) {
	if decodeCanonical(data, &r) {
		return r, true, nil
	}
	var ref resultJSON
	if err := json.Unmarshal(data, &ref); err != nil {
		return Result{}, false, fmt.Errorf("elect: decoding result: %w", err)
	}
	return Result(ref), false, nil
}

// isCanonical reports whether data is canonical wire bytes, as
// DecodeCanonical's canonical flag does, by decoding them into a pooled
// scratch Result: a warm check allocates nothing, whatever the Result's
// size. The bytes are checked by the one canonical grammar; no Result
// escapes.
func isCanonical(data []byte) bool {
	r := scratchResults.Get().(*Result)
	ok := decodeCanonical(data, r)
	scratchResults.Put(r)
	return ok
}

// scratchResults holds isCanonical's scratch Results. Their slices keep
// the capacity of the largest Result each has decoded.
var scratchResults = sync.Pool{New: func() any { return new(Result) }}

// EncodeBatchResult renders b in the stable v1 wire form (canonical bytes,
// like EncodeResult).
func EncodeBatchResult(b *BatchResult) ([]byte, error) {
	return json.Marshal(b)
}

// DecodeBatchResult parses wire bytes written by EncodeBatchResult.
func DecodeBatchResult(data []byte) (*BatchResult, error) {
	var b BatchResult
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("elect: decoding batch result: %w", err)
	}
	return &b, nil
}

// encodeBufs holds EncodeResult's scratch buffers.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendResult appends r's canonical encoding to b, or reports false when r
// holds something only the reference encoder writes.
func appendResult(b []byte, r *Result) ([]byte, bool) {
	if (r.Model != Sync && r.Model != Async) || r.Engine < EngineAuto || r.Engine > EngineLive ||
		math.IsNaN(r.TimeUnits) || math.IsInf(r.TimeUnits, 0) ||
		!plainString(r.Algorithm) || !plainString(r.Topo) || r.Trace != nil || len(r.RoundTrace) > 0 {
		return b, false
	}
	b = append(b, `{"algorithm":"`...)
	b = append(b, r.Algorithm...)
	b = append(b, `","model":"`...)
	b = append(b, r.Model.String()...)
	b = append(b, `","engine":"`...)
	b = append(b, r.Engine.String()...)
	b = append(b, `","n":`...)
	b = strconv.AppendInt(b, int64(r.N), 10)
	b = append(b, `,"seed":`...)
	b = strconv.AppendUint(b, r.Seed, 10)
	b = append(b, `,"ids":`...)
	b = appendInts(b, r.IDs)
	b = append(b, `,"leader":`...)
	b = strconv.AppendInt(b, int64(r.Leader), 10)
	b = append(b, `,"leader_id":`...)
	b = strconv.AppendInt(b, r.LeaderID, 10)
	b = append(b, `,"messages":`...)
	b = strconv.AppendInt(b, r.Messages, 10)
	b = append(b, `,"words":`...)
	b = strconv.AppendInt(b, r.Words, 10)
	b = append(b, `,"rounds":`...)
	b = strconv.AppendInt(b, int64(r.Rounds), 10)
	if len(r.PerRound) > 0 {
		b = append(b, `,"per_round":`...)
		b = appendInts(b, r.PerRound)
	}
	b = append(b, `,"time_units":`...)
	b = appendFloat(b, r.TimeUnits)
	b = append(b, `,"decisions":`...)
	if r.Decisions == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, d := range r.Decisions {
			if d > NonLeader {
				return b, false
			}
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '"')
			b = append(b, d.String()...)
			b = append(b, '"')
		}
		b = append(b, ']')
	}
	b = append(b, `,"all_awake":`...)
	b = strconv.AppendBool(b, r.AllAwake)
	b = append(b, `,"truncated":`...)
	b = strconv.AppendBool(b, r.Truncated)
	b = append(b, `,"timed_out":`...)
	b = strconv.AppendBool(b, r.TimedOut)
	if len(r.Crashed) > 0 {
		b = append(b, `,"crashed":`...)
		b = appendInts(b, r.Crashed)
	}
	b = append(b, `,"dropped":`...)
	b = strconv.AppendInt(b, r.Dropped, 10)
	b = append(b, `,"duplicated":`...)
	b = strconv.AppendInt(b, r.Duplicated, 10)
	b = append(b, `,"ok":`...)
	b = strconv.AppendBool(b, r.OK)
	if r.Topo != "" {
		b = append(b, `,"topo":"`...)
		b = append(b, r.Topo...)
		b = append(b, '"')
	}
	if r.Diameter != 0 {
		b = append(b, `,"diameter":`...)
		b = strconv.AppendInt(b, int64(r.Diameter), 10)
	}
	if r.GraphEdges != 0 {
		b = append(b, `,"graph_edges":`...)
		b = strconv.AppendInt(b, r.GraphEdges, 10)
	}
	return append(b, '}'), true
}

// plainString reports whether encoding/json writes s verbatim between
// quotes: printable ASCII with nothing to escape (its HTML escaping
// included).
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

func appendInts[T int | int64](b []byte, xs []T) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// appendFloat formats a finite f exactly as encoding/json does.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// encoding/json writes e-07 as e-7.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// decodeCanonical fills r from data when data is exactly the canonical
// layout appendResult writes; otherwise it reports false and r holds
// garbage. Every value it accepts decodes to what the reference decoder
// produces for the same bytes, and re-encodes to exactly those bytes: an
// optional field present with its zero value, a non-shortest number or a
// string the reference would escape is left to the reference. Like the
// reference, it refills r's slices in place when they have room, and it
// keeps r's strings when they already hold the decoded text, so decoding
// into a reused Result allocates nothing (see isCanonical).
func decodeCanonical(data []byte, r *Result) bool {
	d := wireReader{data: data, ok: true}
	d.lit(`{"algorithm":`)
	r.Algorithm = d.text(r.Algorithm)
	d.lit(`,"model":`)
	switch string(d.str()) {
	case "sync":
		r.Model = Sync
	case "async":
		r.Model = Async
	default:
		d.ok = false
	}
	d.lit(`,"engine":`)
	switch string(d.str()) {
	case "auto":
		r.Engine = EngineAuto
	case "sync":
		r.Engine = EngineSync
	case "async":
		r.Engine = EngineAsync
	case "live":
		r.Engine = EngineLive
	default:
		d.ok = false
	}
	d.lit(`,"n":`)
	r.N = d.int()
	d.lit(`,"seed":`)
	r.Seed = d.uint64()
	d.lit(`,"ids":`)
	r.IDs = array(&d, r.IDs, d.int64)
	d.lit(`,"leader":`)
	r.Leader = d.int()
	d.lit(`,"leader_id":`)
	r.LeaderID = d.int64()
	d.lit(`,"messages":`)
	r.Messages = d.int64()
	d.lit(`,"words":`)
	r.Words = d.int64()
	d.lit(`,"rounds":`)
	r.Rounds = d.int()
	if d.key(`,"per_round":`) {
		r.PerRound = array(&d, r.PerRound, d.int64)
		d.need(len(r.PerRound) > 0)
	}
	d.lit(`,"time_units":`)
	r.TimeUnits = d.float64()
	d.lit(`,"decisions":`)
	r.Decisions = array(&d, r.Decisions, d.decision)
	d.lit(`,"all_awake":`)
	r.AllAwake = d.bool()
	d.lit(`,"truncated":`)
	r.Truncated = d.bool()
	d.lit(`,"timed_out":`)
	r.TimedOut = d.bool()
	if d.key(`,"crashed":`) {
		r.Crashed = array(&d, r.Crashed, d.int)
		d.need(len(r.Crashed) > 0)
	}
	d.lit(`,"dropped":`)
	r.Dropped = d.int64()
	d.lit(`,"duplicated":`)
	r.Duplicated = d.int64()
	d.lit(`,"ok":`)
	r.OK = d.bool()
	if d.key(`,"topo":`) {
		r.Topo = d.text(r.Topo)
		d.need(r.Topo != "")
	}
	if d.key(`,"diameter":`) {
		r.Diameter = d.int()
		d.need(r.Diameter != 0)
	}
	if d.key(`,"graph_edges":`) {
		r.GraphEdges = d.int64()
		d.need(r.GraphEdges != 0)
	}
	d.lit(`}`)
	return d.ok && d.pos == len(d.data)
}

// wireReader is decodeCanonical's cursor. The first mismatch clears ok,
// after which every read returns a zero value without advancing.
type wireReader struct {
	data []byte
	pos  int
	ok   bool
}

// key consumes s if the input continues with it.
func (d *wireReader) key(s string) bool {
	if !d.ok || len(d.data)-d.pos < len(s) || string(d.data[d.pos:d.pos+len(s)]) != s {
		return false
	}
	d.pos += len(s)
	return true
}

// char consumes c if the input continues with it.
func (d *wireReader) char(c byte) bool {
	if !d.ok || d.pos >= len(d.data) || d.data[d.pos] != c {
		return false
	}
	d.pos++
	return true
}

// lit consumes s or fails.
func (d *wireReader) lit(s string) {
	d.need(d.key(s))
}

// need fails unless cond holds.
func (d *wireReader) need(cond bool) {
	if !cond {
		d.ok = false
	}
}

// text reads a string as str does and returns it, or old when old already
// holds the same text.
func (d *wireReader) text(old string) string {
	if s := d.str(); string(s) != old {
		return string(s)
	}
	return old
}

// str reads a quoted string that encoding/json writes verbatim (see
// plainString). The result aliases the input.
func (d *wireReader) str() []byte {
	if !d.char('"') {
		d.ok = false
		return nil
	}
	start := d.pos
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; {
		case c == '"':
			d.pos++
			return d.data[start : d.pos-1]
		case c < 0x20 || c > 0x7e || c == '\\' || c == '<' || c == '>' || c == '&':
			d.ok = false
			return nil
		}
	}
	d.ok = false
	return nil
}

// number reads a JSON integer literal as its sign and magnitude; -0 fails,
// since the reference writes zero as 0.
func (d *wireReader) number() (neg bool, v uint64) {
	neg = d.char('-')
	start := d.pos
	d.digits(true)
	digits := d.data[start:d.pos]
	const maxUint64 = "18446744073709551615" // without leading zeros, longer is larger
	if len(digits) > len(maxUint64) || len(digits) == len(maxUint64) && string(digits) > maxUint64 {
		d.ok = false
		return false, 0
	}
	for _, c := range digits {
		v = v*10 + uint64(c-'0')
	}
	d.need(!neg || v != 0)
	return neg, v
}

func (d *wireReader) int64() int64 {
	neg, v := d.number()
	switch {
	case !neg && v <= math.MaxInt64:
		return int64(v)
	case neg && v <= -math.MinInt64:
		return -int64(v)
	}
	d.ok = false
	return 0
}

func (d *wireReader) int() int {
	neg, v := d.number()
	switch {
	case !neg && v <= math.MaxInt:
		return int(v)
	case neg && v <= -math.MinInt:
		return -int(v)
	}
	d.ok = false
	return 0
}

func (d *wireReader) uint64() uint64 {
	neg, v := d.number()
	if neg {
		d.ok = false // the reference rejects even -0 for unsigned fields
		return 0
	}
	return v
}

func (d *wireReader) bool() bool {
	if d.key("true") {
		return true
	}
	d.lit("false")
	return false
}

// float64 reads a JSON number literal and converts it as the reference
// does; out-of-range values fail, and so does any literal appendFloat would
// not write back (2.5E+3 for 2500, 1.0 for 1).
func (d *wireReader) float64() float64 {
	start := d.pos
	d.char('-')
	d.digits(true)
	if d.char('.') {
		d.digits(false)
	}
	if d.char('e') || d.char('E') {
		if !d.char('+') {
			d.char('-')
		}
		d.digits(false)
	}
	if !d.ok {
		return 0
	}
	lit := d.data[start:d.pos]
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.ok = false
		return 0
	}
	var buf [32]byte
	d.need(bytes.Equal(appendFloat(buf[:0], f), lit))
	return f
}

// digits consumes a run of at least one decimal digit; intPart forbids a
// leading zero before further digits.
func (d *wireReader) digits(intPart bool) {
	if !d.ok {
		return
	}
	start := d.pos
	for d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
		d.pos++
	}
	if n := d.pos - start; n == 0 || (intPart && n > 1 && d.data[start] == '0') {
		d.ok = false
	}
}

// count returns a capacity hint for the non-empty array whose first
// element starts at the cursor: its element count up to the first ']',
// assuming elements contain no ',' or ']'. The hint is capped at the most
// elements that span fit, one digit and one comma each, so malformed
// input such as a long run of commas never sizes a slice beyond what a
// well-formed array of the same byte length would need.
func (d *wireReader) count() int {
	rest := d.data[d.pos:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return min(bytes.Count(rest, []byte{','})+1, (len(rest)+1)/2)
}

// array reads "null" (nil), "[]" (empty) or a non-empty array whose
// elements elem reads. The elements refill dst's backing array when it has
// room for them, and otherwise go to a new slice of exact capacity.
func array[T any](d *wireReader, dst []T, elem func() T) []T {
	if d.key("null") {
		return nil
	}
	if !d.char('[') {
		d.ok = false
		return nil
	}
	if d.char(']') {
		if dst == nil {
			return []T{}
		}
		return dst[:0]
	}
	out := dst[:0]
	if n := d.count(); cap(out) < n {
		out = make([]T, 0, n)
	}
	for d.ok {
		out = append(out, elem())
		if !d.char(',') {
			break
		}
	}
	if !d.char(']') {
		d.ok = false
	}
	return out
}

func (d *wireReader) decision() Decision {
	switch {
	case d.key(`"non-leader"`):
		return NonLeader
	case d.key(`"leader"`):
		return Leader
	case d.key(`"undecided"`):
		return Undecided
	}
	d.ok = false
	return 0
}
