package main

import (
	"slices"
	"testing"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts(" 1, 2,3 ")
	if err != nil || len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("got %v, %v", got, err)
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Fatal("bad list accepted")
	}
}

func TestParseFloats(t *testing.T) {
	got, err := parseFloats("0, 0.5 ,1")
	if err != nil || len(got) != 3 || got[1] != 0.5 {
		t.Fatalf("got %v, %v", got, err)
	}
	if _, err := parseFloats("0,y"); err == nil {
		t.Fatal("bad list accepted")
	}
}

func TestParseWorkers(t *testing.T) {
	for _, tc := range []struct {
		in    string
		local int
		fleet []string
		ok    bool
	}{
		{"", 0, nil, true},
		{"0", 0, nil, true},
		{"8", 8, nil, true},
		{" 4 ", 4, nil, true},
		{"-1", 0, nil, false},
		{"host1:8090", 0, []string{"host1:8090"}, true},
		{"h1:1, h2:2 ,h3:3", 0, []string{"h1:1", "h2:2", "h3:3"}, true},
		{"http://h1:8090,https://h2", 0, []string{"http://h1:8090", "https://h2"}, true},
		{"h1,,h2", 0, nil, false},
		{",", 0, nil, false},
		// Bare integers mixed into a host list: almost certainly a mistyped
		// worker count, never a hostname.
		{"4,8", 0, nil, false},
		{"h1:1,16", 0, nil, false},
		{" 16 ,h1:1", 0, nil, false},
		// Same host on different ports is two daemons, not a duplicate.
		{"h1:1,h1:2", 0, []string{"h1:1", "h1:2"}, true},
	} {
		local, fleet, err := parseWorkers(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("parseWorkers(%q) err = %v, ok = %v", tc.in, err, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		if local != tc.local || len(fleet) != len(tc.fleet) {
			t.Errorf("parseWorkers(%q) = %d, %v", tc.in, local, fleet)
			continue
		}
		for i := range fleet {
			if fleet[i] != tc.fleet[i] {
				t.Errorf("parseWorkers(%q)[%d] = %q, want %q", tc.in, i, fleet[i], tc.fleet[i])
			}
		}
	}
}

func TestSplitTopos(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"", nil},
		{" ring, torus ,,rreg:d=8", []string{"ring", "torus", "rreg:d=8"}},
		{"edges:0-1,1-2,2-0", []string{"edges:0-1,1-2,2-0"}},
	} {
		if got := splitTopos(tc.in); !slices.Equal(got, tc.want) {
			t.Errorf("splitTopos(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
