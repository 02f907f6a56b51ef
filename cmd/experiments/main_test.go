package main

import (
	"bytes"
	"io"
	"os"
	"testing"
)

func TestExperimentsSubsetQuick(t *testing.T) {
	if err := run([]string{"-quick", "-only", "E4"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestExperimentsMarkdown(t *testing.T) {
	if err := run([]string{"-quick", "-only", "E5", "-markdown"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestExperimentsUnknownID(t *testing.T) {
	if err := run([]string{"-only", "E99"}, io.Discard); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestQuickMarkdownGolden pins the full quick Table-1 report byte for byte.
// The report is deterministic at a fixed seed, so any drift in the engines,
// the protocols or the outcome checks they feed shows up here. Regenerate
// with `go run ./cmd/experiments -quick -markdown > cmd/experiments/testdata/quick.md`
// only when a change is meant to alter the report.
func TestQuickMarkdownGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the full quick report is too slow under the race detector; it runs on one goroutine")
	}
	want, err := os.ReadFile("testdata/quick.md")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run([]string{"-quick", "-markdown"}, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("report differs from testdata/quick.md at line %d:\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("report has %d lines, testdata/quick.md has %d", len(gl), len(wl))
	}
}
