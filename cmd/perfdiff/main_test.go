package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smtflex/internal/benchjson"
	"smtflex/internal/obs"
	"smtflex/internal/perfdiff"
)

// writeSnap writes a snapshot with one time-stack group whose solve phase
// has the given mean self time per trace.
func writeSnap(t *testing.T, dir, name string, solveNs int64) string {
	t.Helper()
	s := perfdiff.Capture(perfdiff.CaptureOpts{Role: "test"})
	s.TimeStacks = []obs.TimeStack{{
		Name: "sweep", Traces: 1, WallNs: solveNs,
		ByNs:    map[string]int64{obs.CatSolve: solveNs},
		Percent: map[string]float64{obs.CatSolve: 100},
	}}
	path := filepath.Join(dir, name)
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSelfCleanExitZero(t *testing.T) {
	dir := t.TempDir()
	base := writeSnap(t, dir, "base.json", 10_000_000)
	cur := writeSnap(t, dir, "cur.json", 10_500_000) // +5%: under floor
	var out, errb bytes.Buffer
	if code := run([]string{base, cur}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %s stdout %s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "clean") {
		t.Errorf("output missing clean verdict: %s", out.String())
	}
}

func TestRunRegressionExitTwoAndReport(t *testing.T) {
	dir := t.TempDir()
	base := writeSnap(t, dir, "base.json", 10_000_000)
	cur := writeSnap(t, dir, "cur.json", 100_000_000) // 10x
	report := filepath.Join(dir, "report.txt")
	var out, errb bytes.Buffer
	if code := run([]string{"-report", report, base, cur}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2; stderr %s", code, errb.String())
	}
	for _, want := range []string{"REGRESSED", obs.CatSolve, "OVER", "+900.0%"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != out.String() {
		t.Errorf("-report file differs from stdout")
	}
}

func TestRunJSONFormat(t *testing.T) {
	dir := t.TempDir()
	base := writeSnap(t, dir, "base.json", 10_000_000)
	cur := writeSnap(t, dir, "cur.json", 100_000_000)
	var out, errb bytes.Buffer
	if code := run([]string{"-format", "json", base, cur}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	rep := &perfdiff.Report{}
	if err := json.Unmarshal(out.Bytes(), rep); err != nil {
		t.Fatalf("json output: %v\n%s", err, out.String())
	}
	if rep.Exceeded == 0 || len(rep.Deltas) == 0 {
		t.Errorf("report %+v", rep)
	}
	if rep.Deltas[0].Metric != obs.CatSolve {
		t.Errorf("top delta %+v, want solve", rep.Deltas[0])
	}
}

const benchText = `goos: linux
goarch: amd64
pkg: smtflex
BenchmarkContentionSolve-1   	      10	   1200000 ns/op	     128 B/op	       2 allocs/op
BenchmarkStudySweep-1        	       2	  90000000 ns/op	 5000000 B/op	   40000 allocs/op
PASS
`

// regressedText is benchText with BenchmarkContentionSolve 10x slower and
// allocating 100x more: the injected regression the gate must catch.
const regressedText = `goos: linux
goarch: amd64
pkg: smtflex
BenchmarkContentionSolve-1   	      10	  12000000 ns/op	   12800 B/op	     200 allocs/op
BenchmarkStudySweep-1        	       2	  90000000 ns/op	 5000000 B/op	   40000 allocs/op
PASS
`

// writeBench converts bench text to a benchjson document, as the CI bench
// job does, and returns its path.
func writeBench(t *testing.T, dir, name, text string) string {
	t.Helper()
	rep, err := benchjson.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunBenchInjectedRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", benchText)
	cur := writeBench(t, dir, "cur.json", regressedText)
	var out, errb bytes.Buffer
	if code := run([]string{base, cur}, &out, &errb); code != 2 {
		t.Fatalf("injected regression exited %d, want 2; stderr %s\n%s", code, errb.String(), out.String())
	}
	rep := out.String()
	// Both of the regressed benchmark's rows are flagged with their signed
	// jumps; the unchanged benchmark is listed, unflagged.
	for _, want := range []string{"REGRESSED: 2 delta(s)", "+900.0%", "+9900.0%"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	for _, line := range strings.Split(rep, "\n") {
		if strings.Contains(line, "BenchmarkStudySweep") && (strings.Contains(line, "OVER") || !strings.Contains(line, "+0.0%")) {
			t.Errorf("unchanged benchmark row %q", line)
		}
		if strings.Contains(line, "BenchmarkContentionSolve") && !strings.Contains(line, "OVER") {
			t.Errorf("regressed benchmark row not flagged: %q", line)
		}
	}
}

func TestRunBenchSelfIsClean(t *testing.T) {
	base := writeBench(t, t.TempDir(), "base.json", benchText)
	var out, errb bytes.Buffer
	if code := run([]string{base, base}, &out, &errb); code != 0 {
		t.Fatalf("self-compare exited %d; stderr %s\n%s", code, errb.String(), out.String())
	}
	// The clean report still lists every benchmark with its signed delta.
	for _, want := range []string{"clean", "BenchmarkContentionSolve", "BenchmarkStudySweep", "+0.0%"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("clean report missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunBenchEmptyCurrentFails(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", benchText)
	// An empty bench document is what a crashed bench run leaves behind.
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"results":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{base, empty}, &out, &errb); code != 1 {
		t.Fatalf("empty current exited %d, want 1; stderr %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "no benchmark results parsed") {
		t.Errorf("stderr = %q, want a no-results explanation", errb.String())
	}
}

func TestRunBenchMissingBaselineFileFails(t *testing.T) {
	dir := t.TempDir()
	cur := writeBench(t, dir, "cur.json", benchText)
	var out, errb bytes.Buffer
	if code := run([]string{filepath.Join(dir, "nope.json"), cur}, &out, &errb); code != 1 {
		t.Fatalf("missing baseline exited %d, want 1; stderr %s", code, errb.String())
	}
}

// TestCommittedBaselineIsSelfClean is the acceptance check for the committed
// gate: the baseline at the repo root must compare clean against itself with
// the thresholds CI uses (perfdiff's defaults).
func TestCommittedBaselineIsSelfClean(t *testing.T) {
	base := filepath.Join("..", "..", "BENCH_baseline.json")
	if _, err := os.Stat(base); err != nil {
		t.Fatalf("committed baseline missing: %v", err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{base, base}, &out, &errb); code != 0 {
		t.Fatalf("committed baseline vs itself exited %d:\n%s%s", code, out.String(), errb.String())
	}
}

func TestRunRawBenchReports(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, ns float64) string {
		rep := benchjson.Report{Results: []benchjson.Result{{
			Name: "BenchmarkSolve", Procs: 1, Iterations: 10, NsPerOp: ns,
			Metrics: map[string]float64{"allocs/op": 0},
		}}}
		data, _ := json.Marshal(rep)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, cur := mk("base.json", 10_000), mk("cur.json", 100_000)
	var out, errb bytes.Buffer
	if code := run([]string{base, cur}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2; stderr %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "bench") || !strings.Contains(out.String(), "ns/op") {
		t.Errorf("bench attribution missing:\n%s", out.String())
	}
	// Identical reports are clean.
	if code := run([]string{base, base}, &out, &errb); code != 0 {
		t.Fatalf("identical bench reports exit %d, want 0", code)
	}
}

func TestRunBadInputsExitOne(t *testing.T) {
	dir := t.TempDir()
	good := writeSnap(t, dir, "good.json", 1000)
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	var out, errb bytes.Buffer
	if code := run([]string{bad, good}, &out, &errb); code != 1 {
		t.Errorf("bad baseline exit %d, want 1", code)
	}
	if code := run([]string{good}, &out, &errb); code != 1 {
		t.Errorf("one arg exit %d, want 1", code)
	}
	if code := run([]string{"-format", "yaml", good, good}, &out, &errb); code != 1 {
		t.Errorf("bad format exit %d, want 1", code)
	}
	// Schema-mismatched snapshot.
	old := filepath.Join(dir, "old.json")
	os.WriteFile(old, []byte(`{"schema_version": 99}`), 0o644)
	if code := run([]string{old, good}, &out, &errb); code != 1 {
		t.Errorf("schema mismatch exit %d, want 1", code)
	}
}
