package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cliquelect/elect"
	"cliquelect/internal/service"
)

func TestSweepTradeoff(t *testing.T) {
	if err := run([]string{"-algo", "tradeoff", "-k", "3,4", "-ns", "32,64", "-seeds", "2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestSweepAsyncCSV(t *testing.T) {
	if err := run([]string{"-algo", "asynctradeoff", "-k", "2", "-ns", "32,64",
		"-seeds", "2", "-wake", "1", "-csv"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestSweepErrors(t *testing.T) {
	if err := run([]string{"-algo", "bogus"}, io.Discard); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if err := run([]string{"-ns", "12,abc"}, io.Discard); err == nil {
		t.Fatal("bad ns accepted")
	}
	if err := run([]string{"-k", "x"}, io.Discard); err == nil {
		t.Fatal("bad k accepted")
	}
}

// TestSweepFaultErrors: malformed fault axes and plans are rejected, and
// fault mode refuses the fault-free BENCH flags.
func TestSweepFaultErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-algo", "bogus", "-drop", "0.1"},
		{"-ns", "12,abc", "-drop", "0.1"},
		{"-drop", "0,x"},
		{"-crash", "y"},
		{"-faults", "bogus=1"},
		{"-faults", "drop=0.3"}, // the sweep axes own crash/drop rates
		{"-faults", "crash=0.3"},
		{"-policy", "bogus"},
		// BENCH files describe fault-free sweeps only.
		{"-drop", "0.1", "-json", filepath.Join(t.TempDir(), "bench.json")},
		{"-faults", "dup=0.02", "-compare", "BENCH_2026-07-30.json"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestSweepJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	if err := run([]string{"-algo", "tradeoff", "-k", "3", "-ns", "32,64",
		"-seeds", "2", "-json", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Date string `json:"date"`
		Algo string `json:"algo"`
		Rows []struct {
			N           int     `json:"n"`
			MeanMsgs    float64 `json:"mean_msgs"`
			SuccessRate float64 `json:"success_rate"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	if bench.Algo != "tradeoff" || bench.Date == "" || len(bench.Rows) != 2 {
		t.Fatalf("unexpected bench file: %+v", bench)
	}
	for _, r := range bench.Rows {
		if r.MeanMsgs <= 0 || r.SuccessRate != 1 {
			t.Fatalf("bad row: %+v", r)
		}
	}
}

// TestSweepCompare: a sweep compared against its own rows is clean; against
// a doctored prior claiming cheaper rows it fails with regressions flagged.
func TestSweepCompare(t *testing.T) {
	dir := t.TempDir()
	prior := filepath.Join(dir, "prior.json")
	args := []string{"-algo", "tradeoff", "-k", "3", "-ns", "32,64", "-seeds", "2"}
	if err := run(append(args, "-json", prior), io.Discard); err != nil {
		t.Fatal(err)
	}
	// Same sweep, same seeds: byte-deterministic rows, zero regressions.
	if err := run(append(args, "-compare", prior), io.Discard); err != nil {
		t.Fatalf("self-comparison flagged regressions: %v", err)
	}

	// A prior that claims half the messages makes every row a >10% regression.
	data, err := os.ReadFile(prior)
	if err != nil {
		t.Fatal(err)
	}
	var bench benchFile
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	doctored := bench
	doctored.Rows = append([]benchRow(nil), bench.Rows...)
	for i := range doctored.Rows {
		doctored.Rows[i].MeanMsgs /= 2
	}
	cheap := filepath.Join(dir, "cheap.json")
	if err := writeBenchJSON(cheap, doctored); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-compare", cheap), io.Discard); err == nil {
		t.Fatal("regressions not flagged")
	}

	// A prior with no matching (algo, k, n) rows is an error, not a silent pass.
	for i := range doctored.Rows {
		doctored.Rows[i].K = 99
	}
	unmatched := filepath.Join(dir, "unmatched.json")
	if err := writeBenchJSON(unmatched, doctored); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-compare", unmatched), io.Discard); err == nil {
		t.Fatal("unmatched comparison accepted")
	}
	if err := run(append(args, "-compare", filepath.Join(dir, "missing.json")), io.Discard); err == nil {
		t.Fatal("missing compare file accepted")
	}
}

// TestSweepCacheFlag: -cache persists run results on disk and replays them
// on the next invocation.
func TestSweepCacheFlag(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-algo", "tradeoff", "-k", "3", "-ns", "32", "-seeds", "2", "-cache", dir}
	if err := run(args, io.Discard); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil || len(entries) != 2 {
		t.Fatalf("cache dir holds %d entries (err %v), want 2", len(entries), err)
	}
	// Second invocation replays from the same cache without error.
	if err := run(args, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// startWorkers boots n in-process electd services and returns their URLs.
func startWorkers(t *testing.T, n int) string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		srv := service.New(service.Config{})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
		urls[i] = ts.URL
	}
	return strings.Join(urls, ",")
}

// TestSweepFleetMatchesLocal is the multi-worker acceptance check: the
// same sweep dispatched to two electd workers writes a byte-identical
// BENCH_*.json to a purely local run, for a sync and an async spec.
func TestSweepFleetMatchesLocal(t *testing.T) {
	fleet := startWorkers(t, 2)
	dir := t.TempDir()
	for name, args := range map[string][]string{
		"tradeoff":      {"-algo", "tradeoff", "-k", "3,4", "-ns", "32,64", "-seeds", "4"},
		"asynctradeoff": {"-algo", "asynctradeoff", "-k", "2", "-ns", "32", "-seeds", "4", "-wake", "1"},
	} {
		localPath := filepath.Join(dir, name+"-local.json")
		fleetPath := filepath.Join(dir, name+"-fleet.json")
		if err := run(append(args, "-json", localPath), io.Discard); err != nil {
			t.Fatalf("%s local: %v", name, err)
		}
		if err := run(append(args, "-json", fleetPath, "-workers", fleet), io.Discard); err != nil {
			t.Fatalf("%s fleet: %v", name, err)
		}
		local, err := os.ReadFile(localPath)
		if err != nil {
			t.Fatal(err)
		}
		remote, err := os.ReadFile(fleetPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(local, remote) {
			t.Fatalf("%s: fleet BENCH json differs from local:\n%s\nvs\n%s", name, remote, local)
		}
	}
}

// TestSweepFleetCacheBytes: a fleet sweep with -cache stores, for every
// cell, exactly the bytes a local sweep with -cache stores — each the
// canonical EncodeResult encoding of the merged result — though the fleet
// coordinator stores the bytes its workers sent instead of re-encoding.
func TestSweepFleetCacheBytes(t *testing.T) {
	fleet := startWorkers(t, 2)
	args := []string{"-algo", "tradeoff", "-k", "3", "-ns", "32,64", "-seeds", "4"}
	localDir, fleetDir := t.TempDir(), t.TempDir()
	if err := run(append(args, "-cache", localDir), io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-cache", fleetDir, "-workers", fleet), io.Discard); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(fleetDir, "*", "*.json"))
	if err != nil || len(entries) != 8 {
		t.Fatalf("fleet cache holds %d entries (err %v), want 8", len(entries), err)
	}
	for _, path := range entries {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(fleetDir, path)
		want, err := os.ReadFile(filepath.Join(localDir, rel))
		if err != nil {
			t.Fatalf("local sweep has no entry %s: %v", rel, err)
		}
		res, err := elect.DecodeResult(got)
		if err != nil {
			t.Fatal(err)
		}
		canonical, err := elect.EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || !bytes.Equal(got, canonical) {
			t.Fatalf("%s: fleet cache holds\n%s\nlocal cache\n%s\ncanonical\n%s", rel, got, want, canonical)
		}
	}
}

func TestSweepWorkersFlagErrors(t *testing.T) {
	if err := run([]string{"-algo", "tradeoff", "-ns", "32", "-seeds", "1", "-workers", "-2"}, io.Discard); err == nil {
		t.Fatal("negative worker count accepted")
	}
	if err := run([]string{"-algo", "tradeoff", "-ns", "32", "-seeds", "1", "-workers", "h1,,h2"}, io.Discard); err == nil {
		t.Fatal("malformed host list accepted")
	}
}

// TestSweepTraceOut drives a fleet sweep with -trace-out and checks the
// exported file is Chrome trace-event JSON carrying the full span
// taxonomy, all under one trace.
func TestSweepTraceOut(t *testing.T) {
	fleet := startWorkers(t, 2)
	path := filepath.Join(t.TempDir(), "sweep.trace.json")
	if err := run([]string{"-algo", "tradeoff", "-k", "3", "-ns", "32,64",
		"-seeds", "4", "-workers", fleet, "-trace-out", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	names := map[string]int{}
	traceIDs := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name]++
		if ev.Ph == "X" {
			if id, ok := ev.Args["trace_id"].(string); ok {
				traceIDs[id] = true
			}
		}
	}
	for _, want := range []string{
		"sweep", "grid", "chunk.dispatch", "client.request",
		"chunk.serve", "queue.wait", "job.exec", "process_name",
	} {
		if names[want] == 0 {
			t.Errorf("trace file has no %q events (have %v)", want, names)
		}
	}
	if len(traceIDs) != 1 {
		t.Errorf("trace file spans %d trace ids, want exactly 1: %v", len(traceIDs), traceIDs)
	}
}

// TestSweepLocalTraceOut covers the no-fleet path: a purely local sweep
// still writes a valid trace with sweep and per-k batch spans.
func TestSweepLocalTraceOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "local.trace.json")
	if err := run([]string{"-algo", "tradeoff", "-k", "3,4", "-ns", "32",
		"-seeds", "2", "-trace-out", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name":"sweep"`, `"name":"batch"`, `"k":"3"`, `"k":"4"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("local trace missing %s:\n%s", want, data)
		}
	}
}

func sweepCSV(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(append(args, "-csv"), &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// successColumn extracts the per-row success rates (the "a/b" success
// column) from the CSV output, skipping the fit lines.
func successColumn(t *testing.T, csv string) []float64 {
	t.Helper()
	var rows [][]string
	for _, line := range strings.Split(strings.TrimSpace(csv), "\n") {
		if !strings.HasPrefix(line, "#") {
			rows = append(rows, strings.Split(line, ","))
		}
	}
	col := slices.Index(rows[0], "success")
	if col < 0 {
		t.Fatalf("no success column in %q", rows[0])
	}
	var out []float64
	for _, row := range rows[1:] {
		var ok, runs int
		if _, err := fmt.Sscanf(row[col], "%d/%d", &ok, &runs); err != nil || runs == 0 {
			t.Fatalf("bad success cell in %q: %v", row, err)
		}
		out = append(out, float64(ok)/float64(runs))
	}
	return out
}

// TestResilienceCurves is the fault axes' acceptance criterion: for the
// paper's headline sync spec and one async spec, the election-success rate
// is 1.0 at drop rate 0 and degrades monotonically (within noise) as the
// rate rises — on both simulators.
func TestResilienceCurves(t *testing.T) {
	cases := []struct {
		algo  string
		drops string
	}{
		{"tradeoff", "0,0.02,0.08,0.3"},
		{"asynctradeoff", "0,0.002,0.01,0.05"},
	}
	for _, tc := range cases {
		rates := successColumn(t, sweepCSV(t,
			"-algo", tc.algo, "-ns", "48", "-drop", tc.drops, "-seeds", "16"))
		if len(rates) != 4 {
			t.Fatalf("%s: %d rows, want 4", tc.algo, len(rates))
		}
		if rates[0] != 1 {
			t.Errorf("%s: success %v at drop rate 0, want 1.0", tc.algo, rates[0])
		}
		const noise = 0.1
		for i := 1; i < len(rates); i++ {
			if rates[i] > rates[i-1]+noise {
				t.Errorf("%s: success rose from %v to %v between drop rates (rows %d→%d)",
					tc.algo, rates[i-1], rates[i], i-1, i)
			}
		}
		if last := rates[len(rates)-1]; last >= rates[0] {
			t.Errorf("%s: success did not degrade across the sweep: %v", tc.algo, rates)
		}
	}
}

// TestSweepDeterministic: a fault-mode table is a pure function of its
// flags — two invocations emit identical bytes.
func TestSweepDeterministic(t *testing.T) {
	args := []string{"-algo", "tradeoff,asynctradeoff", "-ns", "32",
		"-drop", "0,0.1", "-crash", "0,0.2", "-seeds", "6", "-faults", "dup=0.02"}
	if a, b := sweepCSV(t, args...), sweepCSV(t, args...); a != b {
		t.Fatalf("same flags, different tables:\n%s\n---\n%s", a, b)
	}
}

// TestSweepColumns: each swept axis adds its column only when it is swept,
// so a single-spec fault-free sweep keeps its historical header.
func TestSweepColumns(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-algo", "tradeoff"},
			"k,n,mean msgs,std,mean time,success"},
		{[]string{"-algo", "tradeoff,afekgafni"},
			"algo,k,n,mean msgs,std,mean time,success"},
		{[]string{"-algo", "kpprt", "-topo", "ring"},
			"topo,k,n,mean msgs,std,mean time,success"},
		{[]string{"-algo", "tradeoff", "-faults", "dup=0.02"},
			"k,n,crash,drop,mean msgs,std,mean time,success,crashed,dropped,dup'd"},
		{[]string{"-algo", "kpprt,kuttenmoses", "-topo", "ring", "-crash", "0,0.1"},
			"algo,topo,k,n,crash,drop,mean msgs,std,mean time,success,crashed,dropped,dup'd"},
	} {
		csv := sweepCSV(t, append(tc.args, "-ns", "16", "-seeds", "1")...)
		if got, _, _ := strings.Cut(csv, "\n"); got != tc.want {
			t.Errorf("%v: header %q, want %q", tc.args, got, tc.want)
		}
	}
}

func TestSweepAllSelectsQualifiedSpecs(t *testing.T) {
	specs, err := resolveSpecs("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) == 0 {
		t.Fatal("no fault-qualified specs")
	}
	for _, s := range specs {
		if !s.FaultTolerant {
			t.Errorf("%s selected by \"all\" without FaultTolerant", s.Name)
		}
		if s.Name == "lasvegas" {
			t.Error("lasvegas selected despite wedging under faults")
		}
	}
}

func TestSweepAdaptive(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-algo", "tradeoff", "-ns", "24", "-drop", "0",
		"-seeds", "4", "-faults", "adaptive=1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dup'd") {
		t.Fatalf("adaptive plan did not select fault mode:\n%s", buf.String())
	}
}

// TestSweepCacheReplay: -cache leaves a fault-mode table untouched (cold or
// warm) and the warm pass is all hits.
func TestSweepCacheReplay(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-algo", "tradeoff", "-ns", "32", "-drop", "0,0.1", "-seeds", "4"}
	table := func(csv string) string {
		var rows []string
		for _, line := range strings.Split(csv, "\n") {
			if !strings.HasPrefix(line, "#") {
				rows = append(rows, line)
			}
		}
		return strings.Join(rows, "\n")
	}
	plain := sweepCSV(t, args...)
	cold := sweepCSV(t, append(args, "-cache", dir)...)
	warm := sweepCSV(t, append(args, "-cache", dir)...)
	if table(plain) != table(cold) || table(cold) != table(warm) {
		t.Fatalf("cache changed the table:\n%s\n---\n%s\n---\n%s", plain, cold, warm)
	}
	if !strings.Contains(warm, ", 0 misses") {
		t.Fatalf("warm pass was not all hits:\n%s", warm)
	}
}

// TestSweepFaultsFleetMatchesLocal: a fault-mode sweep across two electd
// workers emits byte-identical CSV to the local run — the crash/drop axes
// ride the wire as fault-plan strings and round-trip exactly.
func TestSweepFaultsFleetMatchesLocal(t *testing.T) {
	fleet := startWorkers(t, 2)
	args := []string{"-algo", "tradeoff", "-k", "3,4", "-ns", "32,64", "-seeds", "4",
		"-drop", "0,0.1", "-crash", "0,0.25", "-faults", "dup=0.05"}
	local := sweepCSV(t, args...)
	if remote := sweepCSV(t, append(args, "-workers", fleet)...); remote != local {
		t.Fatalf("fleet CSV differs from local:\n%s\nvs\n%s", remote, local)
	}
}

func TestWireFaults(t *testing.T) {
	for _, tc := range []struct {
		base        string
		crash, drop float64
		want        string
	}{
		{"", 0, 0, ""},
		{"", 0.25, 0, "crash=0.25"},
		{"", 0, 0.1, "drop=0.1"},
		{"dup=0.05", 0.1, 0.2, "dup=0.05,crash=0.1,drop=0.2"},
		{" dup=0.05 ", 0, 0.1, "dup=0.05,drop=0.1"},
	} {
		if got := wireFaults(tc.base, tc.crash, tc.drop); got != tc.want {
			t.Errorf("wireFaults(%q, %v, %v) = %q, want %q", tc.base, tc.crash, tc.drop, got, tc.want)
		}
		// Whatever we emit must parse back to the plan the local path builds.
		plan, err := elect.ParseFaults(wireFaults(tc.base, tc.crash, tc.drop))
		if err != nil {
			t.Fatalf("wireFaults(%q, %v, %v) unparseable: %v", tc.base, tc.crash, tc.drop, err)
		}
		if plan.CrashRate != tc.crash || plan.DropRate != tc.drop {
			t.Errorf("round trip lost rates: %+v", plan)
		}
	}
}
