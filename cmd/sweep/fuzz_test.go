package main

import (
	"strconv"
	"strings"
	"testing"

	"cliquelect/internal/distrib"
)

// FuzzParseWorkers drives the -workers flag through the parser and, for a
// host list, through the fleet constructor that consumes it. An accepted
// value is either a count ≥ 0 with no hosts, or a non-empty host list with
// no empty or numeric entry; distrib.New on that list either fails or
// registers one worker per entry, with distinct URLs. Seeds live in
// testdata/fuzz/FuzzParseWorkers.
func FuzzParseWorkers(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		local, fleet, err := parseWorkers(s)
		if err != nil {
			return
		}
		if fleet == nil {
			if local < 0 {
				t.Fatalf("parseWorkers(%q) = count %d", s, local)
			}
			return
		}
		if local != 0 || len(fleet) == 0 {
			t.Fatalf("parseWorkers(%q) = count %d with hosts %q", s, local, fleet)
		}
		for _, h := range fleet {
			if _, aerr := strconv.Atoi(h); strings.TrimSpace(h) == "" || aerr == nil {
				t.Fatalf("parseWorkers(%q) accepted entry %q", s, h)
			}
		}
		fl, err := distrib.New(distrib.Config{Workers: fleet})
		if err != nil {
			return
		}
		workers := fl.Stats().Workers
		if len(workers) != len(fleet) {
			t.Fatalf("distrib.New(%q) registered %d workers", fleet, len(workers))
		}
		seen := make(map[string]bool)
		for _, w := range workers {
			if seen[w.URL] {
				t.Fatalf("distrib.New(%q) registered %s twice", fleet, w.URL)
			}
			seen[w.URL] = true
		}
	})
}
