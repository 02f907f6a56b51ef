package elect_test

import (
	"testing"

	"cliquelect/elect"
)

// codecBenchResult is the wire-codec benchmark input: tradeoff k=4 at
// n=512, the size the serving benchmark's working set centres on.
func codecBenchResult(b *testing.B) (elect.Result, []byte) {
	b.Helper()
	spec, err := elect.Lookup("tradeoff")
	if err != nil {
		b.Fatal(err)
	}
	res, err := elect.Run(spec, elect.WithN(512), elect.WithParams(elect.Params{K: 4}))
	if err != nil {
		b.Fatal(err)
	}
	data, err := elect.EncodeResult(res)
	if err != nil {
		b.Fatal(err)
	}
	return res, data
}

func BenchmarkEncodeResult(b *testing.B) {
	res, data := codecBenchResult(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := elect.EncodeResult(res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeResult(b *testing.B) {
	_, data := codecBenchResult(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := elect.DecodeResult(data); err != nil {
			b.Fatal(err)
		}
	}
}
