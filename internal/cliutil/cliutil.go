// Package cliutil holds the comma-separated list parsers shared by the
// sweep CLIs (cmd/sweep, cmd/faultsweep), so flag parsing for value lists
// lives in one place.
package cliutil

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseInts parses a comma-separated integer list, tolerating whitespace.
func ParseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseWorkers interprets the sweep CLIs' -workers flag, which is
// dual-mode: a bare integer is local parallelism (0 = GOMAXPROCS), while
// anything else is a comma-separated list of electd worker hosts/URLs for
// distributed fleet dispatch ("host1:8090,host2:8090"). Exactly one of the
// two returns is meaningful: fleet is nil in integer mode, local is 0 in
// fleet mode. List mode rejects empty and bare-integer entries (a mistyped
// count like "4,8" must not become a hostname); distrib.New rejects two
// entries that name one daemon, after normalizing their URLs.
func ParseWorkers(s string) (local int, fleet []string, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil, nil
	}
	if v, aerr := strconv.Atoi(s); aerr == nil {
		if v < 0 {
			return 0, nil, fmt.Errorf("bad worker count %d", v)
		}
		return v, nil, nil
	}
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			return 0, nil, fmt.Errorf("bad worker list %q: empty entry", s)
		}
		if _, aerr := strconv.Atoi(p); aerr == nil {
			return 0, nil, fmt.Errorf("bad worker list %q: %q is a number, not a host (worker counts don't mix with host lists)", s, p)
		}
		fleet = append(fleet, p)
	}
	return 0, fleet, nil
}

// ParseFloats parses a comma-separated float list, tolerating whitespace.
func ParseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// SplitTopos parses the sweep CLIs' -topo flag: a comma-separated list of
// topology specs, except that an explicit edge list ("edges:0-1,1-2,...")
// uses commas itself and is taken as one spec.
func SplitTopos(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	if strings.HasPrefix(s, "edges:") {
		return []string{s}
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
