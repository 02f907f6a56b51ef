package topo

import (
	"fmt"
	"strconv"
	"strings"

	"cliquelect/internal/xrand"
)

// Spec strings name topologies on CLI flags, the wire schema and the result
// cache. Forms:
//
//	""            the clique (the default; canonical form is the empty string)
//	"clique"      alias for ""
//	"ring"        cycle
//	"torus"       squarest 2-D wraparound grid
//	"rreg"        random d-regular graph; "rreg:d=8" sets the degree (default 4)
//	"power"       Barabási–Albert graph; "power:m=4" sets the attachment count (default 2)
//	"edges:0-1,1-2"  explicit undirected edge list
//
// Canonical reduces any accepted spelling to its canonical form — parameter
// defaults made explicit ("rreg" -> "rreg:d=4"), clique to "", edge lists
// normalized and sorted — so equal topologies always hash to equal
// fingerprints.

// defaults for the parameterized generators.
const (
	defaultRegularDegree = 4
	defaultAttachCount   = 2
)

// parsed is a validated, canonicalized topology spec.
type parsed struct {
	family string // "" (clique), "ring", "torus", "rreg", "power", "edges"
	canon  string // canonical spec string ("" for the clique)
	d      int    // rreg degree
	m      int    // power attachment count
	edges  [][2]int
}

// parse validates a spec string and resolves parameter defaults.
func parse(spec string) (parsed, error) {
	spec = strings.TrimSpace(spec)
	head, arg, hasArg := strings.Cut(spec, ":")
	switch head {
	case "", "clique":
		if hasArg {
			return parsed{}, fmt.Errorf("topo: %q takes no parameters", head)
		}
		return parsed{family: "", canon: ""}, nil
	case "ring", "torus":
		if hasArg {
			return parsed{}, fmt.Errorf("topo: %q takes no parameters", head)
		}
		return parsed{family: head, canon: head}, nil
	case "rreg":
		d, err := intParam(head, arg, hasArg, "d", defaultRegularDegree)
		if err != nil {
			return parsed{}, err
		}
		if d < 1 {
			return parsed{}, fmt.Errorf("topo: random-regular degree d = %d, need d >= 1", d)
		}
		return parsed{family: head, canon: fmt.Sprintf("rreg:d=%d", d), d: d}, nil
	case "power":
		m, err := intParam(head, arg, hasArg, "m", defaultAttachCount)
		if err != nil {
			return parsed{}, err
		}
		if m < 1 {
			return parsed{}, fmt.Errorf("topo: power-law attachment m = %d, need m >= 1", m)
		}
		return parsed{family: head, canon: fmt.Sprintf("power:m=%d", m), m: m}, nil
	case "edges":
		if !hasArg || arg == "" {
			return parsed{}, fmt.Errorf("topo: edge-list spec needs edges, e.g. %q", "edges:0-1,1-2")
		}
		edges, err := parseEdges(arg)
		if err != nil {
			return parsed{}, err
		}
		return parsed{family: head, canon: edgesName(edges), edges: edges}, nil
	}
	return parsed{}, fmt.Errorf("topo: unknown topology %q (have: clique, ring, torus, rreg[:d=K], power[:m=K], edges:u-v,...)", spec)
}

// intParam parses the single "key=value" parameter of a generator spec.
func intParam(head, arg string, hasArg bool, key string, def int) (int, error) {
	if !hasArg {
		return def, nil
	}
	k, v, ok := strings.Cut(arg, "=")
	if !ok || k != key {
		return 0, fmt.Errorf("topo: %s takes %s=<int>, got %q", head, key, arg)
	}
	val, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("topo: %s parameter %s=%q is not an integer", head, key, v)
	}
	return val, nil
}

// parseEdges parses "0-1,1-2,..." into an edge list.
func parseEdges(arg string) ([][2]int, error) {
	parts := strings.Split(arg, ",")
	edges := make([][2]int, 0, len(parts))
	for _, p := range parts {
		a, b, ok := strings.Cut(strings.TrimSpace(p), "-")
		if !ok {
			return nil, fmt.Errorf("topo: edge %q is not of the form u-v", p)
		}
		u, err := strconv.Atoi(a)
		if err != nil {
			return nil, fmt.Errorf("topo: edge endpoint %q is not an integer", a)
		}
		v, err := strconv.Atoi(b)
		if err != nil {
			return nil, fmt.Errorf("topo: edge endpoint %q is not an integer", b)
		}
		edges = append(edges, [2]int{u, v})
	}
	return edges, nil
}

// Canonical validates a spec string and returns its canonical form. The
// clique canonicalizes to "" — the form under which a run carries no
// topology at all, which is what keeps clique fingerprints byte-identical
// to the pre-topology key space.
func Canonical(spec string) (string, error) {
	p, err := parse(spec)
	if err != nil {
		return "", err
	}
	return p.canon, nil
}

// Family returns the generator family of a valid spec ("" for the clique).
func Family(spec string) (string, error) {
	p, err := parse(spec)
	if err != nil {
		return "", err
	}
	return p.family, nil
}

// Build constructs the topology named by spec on n nodes. Seeded generators
// (rreg, power) draw from an xrand stream seeded with seed; the fixed
// topologies ignore it. ""/"clique" builds the implicit Clique.
func Build(spec string, n int, seed uint64) (Topology, error) {
	p, err := parse(spec)
	if err != nil {
		return nil, err
	}
	switch p.family {
	case "":
		return NewClique(n)
	case "ring":
		return Ring(n)
	case "torus":
		return Torus(n)
	case "rreg":
		return RandomRegular(n, p.d, xrand.New(seed))
	case "power":
		return PowerLaw(n, p.m, xrand.New(seed))
	case "edges":
		g, err := FromEdges(n, p.edges)
		if err != nil {
			return nil, err
		}
		return g, nil
	}
	return nil, fmt.Errorf("topo: unknown family %q", p.family)
}
