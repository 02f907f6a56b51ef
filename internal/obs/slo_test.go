package obs

import (
	"os"
	"testing"
	"time"
)

func TestVerdictMerging(t *testing.T) {
	if WorseVerdict(HealthHealthy, HealthDegraded) != HealthDegraded {
		t.Fatal("degraded should beat healthy")
	}
	if WorseVerdict(HealthCritical, HealthDegraded) != HealthCritical {
		t.Fatal("critical should beat degraded")
	}
	if WorseVerdict(HealthHealthy, "unreachable") != "unreachable" {
		t.Fatal("unknown verdicts must rank worst")
	}
}

func TestSLOTrackerVerdicts(t *testing.T) {
	var sample SLOSample
	tr := NewSLOTracker(func() SLOSample { return sample })
	now := time.Unix(1000, 0)
	tr.setClock(func() time.Time { return now })

	// Zero traffic: healthy, no burn.
	st := tr.Status()
	if st.Verdict != HealthHealthy || st.BurnRate != 0 {
		t.Fatalf("idle status = %+v, want healthy", st)
	}

	// 1000 requests, 5 errors: bad ratio 0.5%, burn 0.5 — healthy.
	now = now.Add(10 * time.Second)
	sample = SLOSample{Requests: 1000, Errors: 5}
	st = tr.Status()
	if st.Verdict != HealthHealthy {
		t.Fatalf("burn 0.5 status = %+v, want healthy", st)
	}
	if st.Requests != 1000 || st.BurnRate != 0.5 {
		t.Fatalf("evidence = %+v, want 1000 reqs at burn 0.5", st)
	}

	// +1000 requests, +30 more bad (20 errors, 10 slow): window bad ratio
	// 35/2000 = 1.75%, burn 1.75 — degraded.
	now = now.Add(10 * time.Second)
	sample = SLOSample{Requests: 2000, Errors: 25, Slow: 10}
	st = tr.Status()
	if st.Verdict != HealthDegraded {
		t.Fatalf("burn 1.75 status = %+v, want degraded", st)
	}

	// +1000 requests, +300 errors: ratio 335/3000 = 11.2%, burn 11.2 —
	// critical (fast burn).
	now = now.Add(10 * time.Second)
	sample = SLOSample{Requests: 3000, Errors: 325, Slow: 10}
	st = tr.Status()
	if st.Verdict != HealthCritical {
		t.Fatalf("burn 11 status = %+v, want critical", st)
	}
	if st.WindowSeconds != 30 {
		t.Fatalf("window = %vs, want 30", st.WindowSeconds)
	}

	// Errors stop; once the bad samples age out of the 5-minute window the
	// verdict recovers.
	for i := 0; i < 60; i++ {
		now = now.Add(10 * time.Second)
		sample.Requests += 1000
		st = tr.Status()
	}
	if st.Verdict != HealthHealthy {
		t.Fatalf("post-recovery status = %+v, want healthy", st)
	}
}

func TestSLOTrackerWindowTrim(t *testing.T) {
	tr := NewSLOTracker(func() SLOSample { return SLOSample{} })
	now := time.Unix(2000, 0)
	tr.setClock(func() time.Time { return now })
	for i := 0; i < 1000; i++ {
		tr.Status()
		now = now.Add(time.Second)
	}
	tr.mu.Lock()
	n := len(tr.points)
	tr.mu.Unlock()
	// 5-minute window at 10s steps: ~30 live points plus one baseline.
	if n > 35 {
		t.Fatalf("ring holds %d points, want bounded near window/step", n)
	}
}

func TestProcessRSSBytes(t *testing.T) {
	// On Linux this must report a live positive RSS; elsewhere 0 is the
	// documented graceful answer. The test binary certainly has pages
	// resident, so on procfs systems assert > 0.
	rss := ProcessRSSBytes()
	if _, err := os.Stat("/proc/self/statm"); err == nil && rss <= 0 {
		t.Fatalf("ProcessRSSBytes = %d on a procfs system, want > 0", rss)
	}
	if rss < 0 {
		t.Fatalf("ProcessRSSBytes = %d, want non-negative", rss)
	}
}
