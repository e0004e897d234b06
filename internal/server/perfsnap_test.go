package server

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"smtflex/internal/core"
	"smtflex/internal/obs"
	"smtflex/internal/perfdiff"
)

// perfSharedSim is this file's own engine: the engine histograms only see
// observations from sweeps that actually evaluate, and the package-shared
// sim may have any design memoized already by earlier tests. Tests here
// sweep distinct designs so each drives real solver work.
var (
	perfSimOnce sync.Once
	perfSim     *core.Simulator
)

func perfSharedSim() *core.Simulator {
	perfSimOnce.Do(func() { perfSim = core.NewSimulator(testSimOpts()...) })
	return perfSim
}

func TestPerfsnapEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Sim: perfSharedSim()})
	// Drive one sweep so the snapshot has traffic to attribute.
	if code, _, _ := postJSON(t, ts.URL+"/v1/sweep", `{"design":"4B"}`); code != http.StatusOK {
		t.Fatalf("sweep: code=%d", code)
	}
	code, body := getJSON(t, ts.URL+"/debug/perfsnap")
	if code != http.StatusOK {
		t.Fatalf("perfsnap: code=%d body=%s", code, body)
	}
	snap := &perfdiff.Snapshot{}
	if err := json.Unmarshal(body, snap); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	if snap.Role != "solo" {
		t.Errorf("role %q, want solo", snap.Role)
	}
	if len(snap.TimeStacks) == 0 {
		t.Error("no time stacks after a sweep")
	}
	for _, name := range []string{perfdiff.HistSolverIterations, perfdiff.HistPoolQueueSeconds} {
		if _, ok := snap.Histogram(name); !ok {
			t.Errorf("histogram %q missing", name)
		}
	}
	if h, _ := snap.Histogram(perfdiff.HistSolverIterations); h.Count == 0 {
		t.Error("solver-iteration histogram empty after a sweep")
	}
	if len(snap.Caches) == 0 {
		t.Error("no cache counters")
	}
	if len(snap.Profiles) != 0 {
		t.Errorf("profiles attached without ?pprof=1: %d", len(snap.Profiles))
	}
}

func TestPerfsnapPprofProfiles(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// profile_ms=0 keeps the capture instant: heap only.
	code, body := getJSON(t, ts.URL+"/debug/perfsnap?pprof=1&profile_ms=0")
	if code != http.StatusOK {
		t.Fatalf("perfsnap pprof: code=%d", code)
	}
	snap := &perfdiff.Snapshot{}
	if err := json.Unmarshal(body, snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Profiles) != 1 || snap.Profiles[0].Kind != "heap" {
		t.Fatalf("profiles %+v, want one heap profile", snap.Profiles)
	}
	if len(snap.Profiles[0].Data) == 0 {
		t.Error("empty heap profile")
	}
	if code, _ := getJSON(t, ts.URL+"/debug/perfsnap?pprof=1&profile_ms=bogus"); code != http.StatusBadRequest {
		t.Errorf("bogus profile_ms: code=%d, want 400", code)
	}
}

func TestTimestackIncludesHistogramQuantiles(t *testing.T) {
	_, ts := newTestServer(t, Config{Sim: perfSharedSim()})
	if code, _, _ := postJSON(t, ts.URL+"/v1/sweep", `{"design":"8m"}`); code != http.StatusOK {
		t.Fatal("sweep failed")
	}
	code, body := getJSON(t, ts.URL+"/debug/timestack")
	if code != http.StatusOK {
		t.Fatalf("timestack: code=%d", code)
	}
	var resp TimestackResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Histograms) != 2 {
		t.Fatalf("histograms %+v, want solver + queue", resp.Histograms)
	}
	var iters HistQuantiles
	for _, h := range resp.Histograms {
		if h.Name == perfdiff.HistSolverIterations {
			iters = h
		}
	}
	if iters.Count == 0 || iters.P99 < iters.P50 {
		t.Errorf("solver-iteration quantiles %+v", iters)
	}
	// The text format renders the same summary lines.
	code, body = getJSON(t, ts.URL+"/debug/timestack?format=text")
	if code != http.StatusOK || !strings.Contains(string(body), perfdiff.HistSolverIterations) {
		t.Errorf("text timestack missing histogram summary: code=%d body=%s", code, body)
	}
}

func TestDriftLoopCapturesSnapshot(t *testing.T) {
	// Baseline: solver converges in 1 iteration.
	base := obs.NewHistogram(perfdiff.SolverIterBuckets)
	base.Observe(1)
	baseline := perfdiff.Capture(perfdiff.CaptureOpts{
		Role: "test",
		Histograms: []perfdiff.HistogramState{
			perfdiff.HistState(perfdiff.HistSolverIterations, base.Snapshot()),
		},
	})

	dir := t.TempDir()
	s, _ := newTestServer(t, Config{PerfBaseline: baseline, PerfDumpDir: dir})
	// Live state drifts: iterations land two decades above the baseline.
	for i := 0; i < 32; i++ {
		s.solverIters.Observe(200)
	}
	s.checkDrift(context.Background())
	if s.perf.dumps.Load() != 1 {
		t.Fatalf("drift check captured %d snapshots, want 1; drifts=%d", s.perf.dumps.Load(), s.perf.drifts.Load())
	}
	if s.perf.drifts.Load() == 0 {
		t.Error("drift counter not bumped")
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snapPath string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "perfdrift-") && strings.HasSuffix(e.Name(), ".json") {
			snapPath = filepath.Join(dir, e.Name())
		}
	}
	if snapPath == "" {
		t.Fatalf("no perfdrift-*.json in %s: %v", dir, entries)
	}
	snap, err := perfdiff.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if h, ok := snap.Histogram(perfdiff.HistSolverIterations); !ok || h.Count == 0 {
		t.Errorf("drift snapshot missing the drifted histogram")
	}
}

func TestDriftLoopQuietWhenWithinTolerance(t *testing.T) {
	base := obs.NewHistogram(perfdiff.SolverIterBuckets)
	base.Observe(200)
	baseline := perfdiff.Capture(perfdiff.CaptureOpts{
		Role: "test",
		Histograms: []perfdiff.HistogramState{
			perfdiff.HistState(perfdiff.HistSolverIterations, base.Snapshot()),
		},
	})
	dir := t.TempDir()
	s, _ := newTestServer(t, Config{PerfBaseline: baseline, PerfDumpDir: dir})
	// Live state matches the baseline: no drift, no dumps.
	s.solverIters.Observe(200)
	s.checkDrift(context.Background())
	if n := s.perf.drifts.Load(); n != 0 {
		t.Errorf("drifts %d on matching state", n)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("unexpected dumps: %v", entries)
	}
}

func TestMetricsIncludePerfSeries(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := getJSON(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: code=%d", code)
	}
	typed, values := lintPromText(t, body)
	for _, want := range []string{
		"smtflexd_perf_drift_total",
		"smtflexd_perf_drift_snapshots_total",
		"smtflexd_perf_drift_snapshot_errors_total",
	} {
		if typed[want] != "counter" {
			t.Errorf("metric %s typed %q, want counter", want, typed[want])
		}
		if v, ok := values[want]; !ok || v != 0 {
			t.Errorf("metric %s = %v (present=%v), want 0", want, v, ok)
		}
	}
}
