package main

import (
	"fmt"
	"strconv"
	"strings"

	"cliquelect/elect"
)

// parseInts parses a comma-separated integer list, tolerating whitespace.
func parseInts(s string) ([]int, error) {
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

// parseFloats parses a comma-separated float list, tolerating whitespace.
func parseFloats(s string) ([]float64, error) {
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

// parseWorkers interprets the -workers flag, which is dual-mode: a bare
// integer is local parallelism (0 = GOMAXPROCS), while anything else is a
// comma-separated list of electd worker hosts/URLs for distributed fleet
// dispatch ("host1:8090,host2:8090"). Exactly one of the two returns is
// meaningful: fleet is nil in integer mode, local is 0 in fleet mode. List
// mode rejects empty and bare-integer entries (a mistyped count like "4,8"
// must not become a hostname); distrib.New rejects two entries that name
// one daemon, after normalizing their URLs.
func parseWorkers(s string) (local int, fleet []string, err error) {
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

// splitTopos parses the -topo flag: a comma-separated list of topology
// specs, except that an explicit edge list ("edges:0-1,1-2,...") uses
// commas itself and is taken as one spec.
func splitTopos(s string) []string {
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

// resolveSpecs turns the -algo flag into specs: a comma-separated name list,
// or "all" for every fault-tolerant spec in the registry.
func resolveSpecs(algo string) ([]elect.Spec, error) {
	var out []elect.Spec
	if algo == "all" {
		for _, s := range elect.Registry() {
			if s.FaultTolerant {
				out = append(out, s)
			}
		}
		return out, nil
	}
	for _, name := range strings.Split(algo, ",") {
		spec, err := elect.Lookup(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, spec)
	}
	return out, nil
}

// wireFaults renders a cell's fault plan in elect.ParseFaults syntax: the
// -faults base plan plus the sweep axes' crash/drop rates. FormatFloat 'g'
// with precision -1 round-trips float64 exactly, so the plan parsed back
// carries the very rates of the sweep axes, locally and on fleet workers.
func wireFaults(base string, crash, drop float64) string {
	var parts []string
	if s := strings.TrimSpace(base); s != "" {
		parts = append(parts, s)
	}
	if crash != 0 {
		parts = append(parts, "crash="+strconv.FormatFloat(crash, 'g', -1, 64))
	}
	if drop != 0 {
		parts = append(parts, "drop="+strconv.FormatFloat(drop, 'g', -1, 64))
	}
	return strings.Join(parts, ",")
}
