package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cliquelect/elect"
	"cliquelect/internal/service"
)

func TestSweepTradeoff(t *testing.T) {
	if err := run([]string{"-algo", "tradeoff", "-k", "3,4", "-ns", "32,64", "-seeds", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestSweepAsyncCSV(t *testing.T) {
	if err := run([]string{"-algo", "asynctradeoff", "-k", "2", "-ns", "32,64",
		"-seeds", "2", "-wake", "1", "-csv"}); err != nil {
		t.Fatal(err)
	}
}

func TestSweepErrors(t *testing.T) {
	if err := run([]string{"-algo", "bogus"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if err := run([]string{"-ns", "12,abc"}); err == nil {
		t.Fatal("bad ns accepted")
	}
	if err := run([]string{"-k", "x"}); err == nil {
		t.Fatal("bad k accepted")
	}
}

func TestSweepJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	if err := run([]string{"-algo", "tradeoff", "-k", "3", "-ns", "32,64",
		"-seeds", "2", "-json", path}); err != nil {
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
	if err := run(append(args, "-json", prior)); err != nil {
		t.Fatal(err)
	}
	// Same sweep, same seeds: byte-deterministic rows, zero regressions.
	if err := run(append(args, "-compare", prior)); err != nil {
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
	if err := run(append(args, "-compare", cheap)); err == nil {
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
	if err := run(append(args, "-compare", unmatched)); err == nil {
		t.Fatal("unmatched comparison accepted")
	}
	if err := run(append(args, "-compare", filepath.Join(dir, "missing.json"))); err == nil {
		t.Fatal("missing compare file accepted")
	}
}

// TestSweepCacheFlag: -cache persists run results on disk and replays them
// on the next invocation.
func TestSweepCacheFlag(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-algo", "tradeoff", "-k", "3", "-ns", "32", "-seeds", "2", "-cache", dir}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil || len(entries) != 2 {
		t.Fatalf("cache dir holds %d entries (err %v), want 2", len(entries), err)
	}
	// Second invocation replays from the same cache without error.
	if err := run(args); err != nil {
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
		if err := run(append(args, "-json", localPath)); err != nil {
			t.Fatalf("%s local: %v", name, err)
		}
		if err := run(append(args, "-json", fleetPath, "-workers", fleet)); err != nil {
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
	if err := run(append(args, "-cache", localDir)); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-cache", fleetDir, "-workers", fleet)); err != nil {
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
	if err := run([]string{"-algo", "tradeoff", "-ns", "32", "-seeds", "1", "-workers", "-2"}); err == nil {
		t.Fatal("negative worker count accepted")
	}
	if err := run([]string{"-algo", "tradeoff", "-ns", "32", "-seeds", "1", "-workers", "h1,,h2"}); err == nil {
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
		"-seeds", "4", "-workers", fleet, "-trace-out", path}); err != nil {
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
		"-seeds", "2", "-trace-out", path}); err != nil {
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
