package elect

import (
	"encoding/json"
	"fmt"
)

// This file is the stable JSON wire codec for Result and BatchResult: the
// byte format stored by the result cache, written by cmd/sweep -json
// consumers, and served by the electd daemon. The format is versioned by
// convention rather than by envelope: field names and enum spellings below
// are frozen (v1); additions are allowed, renames and retypes are not.
// Encoding is canonical — the same Result always encodes to the same bytes
// (encoding/json emits struct fields in declaration order) — which is what
// lets the cache promise byte-identical replays of deterministic runs.

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

// EncodeResult renders r in the stable v1 wire form. The encoding is
// canonical: equal Results produce identical bytes.
func EncodeResult(r Result) ([]byte, error) {
	return json.Marshal(r)
}

// DecodeResult parses wire bytes written by EncodeResult. Unknown fields are
// ignored, so older binaries can read results written by newer ones.
func DecodeResult(data []byte) (Result, error) {
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return Result{}, fmt.Errorf("elect: decoding result: %w", err)
	}
	return r, nil
}

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
