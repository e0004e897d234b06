package benchjson

import (
	"errors"
	"strings"
	"testing"
)

func report(results ...Result) *Report {
	return &Report{Goos: "linux", Goarch: "amd64", Results: results}
}

func bench(name string, ns float64, allocs float64) Result {
	return Result{
		Name: name, Package: "smtflex", Procs: 8, Iterations: 1, NsPerOp: ns,
		Metrics: map[string]float64{"allocs/op": allocs, "B/op": allocs * 48},
	}
}

func TestCompareClean(t *testing.T) {
	base := report(bench("BenchmarkA", 1e6, 100), bench("BenchmarkB", 5e6, 0))
	cur := report(bench("BenchmarkA", 1.2e6, 100), bench("BenchmarkB", 4e6, 2))
	regs, err := Compare(base, cur, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("clean run flagged: %+v", regs)
	}
}

func TestCompareNsRegression(t *testing.T) {
	th := Thresholds{Default: Limit{NsPerOpPct: 50, AllocsPerOpPct: 10}, MinNsPerOp: 1000}
	base := report(bench("BenchmarkA", 1e6, 100))
	cur := report(bench("BenchmarkA", 1.6e6, 100))
	regs, err := Compare(base, cur, th)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "ns/op" {
		t.Fatalf("want one ns/op regression, got %+v", regs)
	}
	if regs[0].Allowed != 1.5e6 || regs[0].Current != 1.6e6 {
		t.Errorf("regression values: %+v", regs[0])
	}
	if !strings.Contains(regs[0].String(), "ns/op") {
		t.Errorf("report line: %q", regs[0].String())
	}
}

func TestCompareAllocRegressionStrict(t *testing.T) {
	th := Thresholds{Default: Limit{NsPerOpPct: 300, AllocsPerOpPct: 0, AllocsPerOpSlack: 2}}
	base := report(bench("BenchmarkSolver", 1e6, 0))
	// +2 allocs on a zero-alloc benchmark: inside the absolute slack.
	regs, err := Compare(base, report(bench("BenchmarkSolver", 1e6, 2)), th)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("slack not applied: %+v", regs)
	}
	// +3 allocs: over the slack, and the percentage gate (0% of 0) adds nothing.
	regs, err = Compare(base, report(bench("BenchmarkSolver", 1e6, 3)), th)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("want one allocs/op regression, got %+v", regs)
	}
}

func TestCompareNoiseFloor(t *testing.T) {
	th := Thresholds{Default: Limit{NsPerOpPct: 10}, MinNsPerOp: 1000}
	// 500ns baseline is under the 1µs floor: a 10x wall-time jump is noise.
	base := report(bench("BenchmarkTiny", 500, 1))
	regs, err := Compare(base, report(bench("BenchmarkTiny", 5000, 1)), th)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("noise-floor benchmark gated: %+v", regs)
	}
}

func TestComparePerBenchOverride(t *testing.T) {
	th := Thresholds{
		Default:  Limit{NsPerOpPct: 10, AllocsPerOpPct: 0},
		PerBench: map[string]Limit{"BenchmarkNoisy": {NsPerOpPct: 1000, AllocsPerOpPct: 100}},
	}
	base := report(bench("BenchmarkNoisy", 1e6, 100), bench("BenchmarkQuiet", 1e6, 100))
	cur := report(bench("BenchmarkNoisy", 5e6, 150), bench("BenchmarkQuiet", 5e6, 150))
	regs, err := Compare(base, cur, th)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regs {
		if r.Name == "BenchmarkNoisy" {
			t.Errorf("override ignored: %+v", r)
		}
	}
	var quiet int
	for _, r := range regs {
		if r.Name == "BenchmarkQuiet" {
			quiet++
		}
	}
	if quiet != 2 {
		t.Errorf("want 2 regressions on BenchmarkQuiet (ns + allocs), got %d: %+v", quiet, regs)
	}
}

func TestCompareMissingBenchmark(t *testing.T) {
	base := report(bench("BenchmarkA", 1e6, 1), bench("BenchmarkGone", 1e6, 1))
	cur := report(bench("BenchmarkA", 1e6, 1), bench("BenchmarkNew", 1e6, 1))
	regs, err := Compare(base, cur, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "missing" || regs[0].Name != "BenchmarkGone" {
		t.Fatalf("want BenchmarkGone missing, got %+v", regs)
	}
	if !strings.Contains(regs[0].String(), "missing") {
		t.Errorf("report line: %q", regs[0].String())
	}
}

func TestCompareMissingAllocsMetric(t *testing.T) {
	base := report(bench("BenchmarkA", 1e6, 10))
	cur := report(Result{Name: "BenchmarkA", Package: "smtflex", Procs: 8, NsPerOp: 1e6})
	regs, err := Compare(base, cur, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "allocs/op" || regs[0].Current != -1 {
		t.Fatalf("want allocs/op-unmeasured failure, got %+v", regs)
	}
}

func TestCompareEmptyReports(t *testing.T) {
	good := report(bench("BenchmarkA", 1e6, 1))
	for _, tc := range []struct{ base, cur *Report }{
		{nil, good}, {good, nil}, {&Report{}, good}, {good, &Report{}},
	} {
		if _, err := Compare(tc.base, tc.cur, DefaultThresholds()); !errors.Is(err, ErrNoResults) {
			t.Errorf("Compare(%v, %v) err = %v, want ErrNoResults", tc.base, tc.cur, err)
		}
	}
}

func TestCompareSortsWorstFirst(t *testing.T) {
	th := Thresholds{Default: Limit{NsPerOpPct: 0, AllocsPerOpPct: 0}}
	base := report(bench("BenchmarkSmall", 1e6, 10), bench("BenchmarkBig", 1e6, 10), bench("BenchmarkGone", 1e6, 10))
	cur := report(bench("BenchmarkSmall", 1.1e6, 10), bench("BenchmarkBig", 3e6, 10))
	regs, err := Compare(base, cur, th)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 3 {
		t.Fatalf("got %d regressions: %+v", len(regs), regs)
	}
	if regs[0].Metric != "missing" || regs[1].Name != "BenchmarkBig" || regs[2].Name != "BenchmarkSmall" {
		t.Errorf("order: %+v", regs)
	}
}

func TestDecodeJSONRoundTrip(t *testing.T) {
	if _, err := DecodeJSON(strings.NewReader(`{"results":[]}`)); !errors.Is(err, ErrNoResults) {
		t.Errorf("empty document err = %v, want ErrNoResults", err)
	}
	if _, err := DecodeJSON(strings.NewReader(`{broken`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	// Negative values would make the gate's allowance arithmetic fail a
	// document against itself (-1000 allocs/op allows at most -1036).
	for _, doc := range []string{
		`{"results":[{"name":"BenchmarkA","procs":1,"iterations":1,"ns_per_op":5,"metrics":{"allocs/op":-1000}}]}`,
		`{"results":[{"name":"BenchmarkA","procs":1,"iterations":1,"ns_per_op":-5}]}`,
		`{"results":[{"name":"BenchmarkA","procs":1,"iterations":-1,"ns_per_op":5}]}`,
	} {
		if _, err := DecodeJSON(strings.NewReader(doc)); err == nil {
			t.Errorf("negative value accepted: %s", doc)
		}
	}
	rep, err := DecodeJSON(strings.NewReader(
		`{"goos":"linux","results":[{"name":"BenchmarkA","procs":8,"iterations":1,"ns_per_op":5,"metrics":{"allocs/op":3}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].Metrics["allocs/op"] != 3 {
		t.Errorf("round trip: %+v", rep.Results[0])
	}
}

// TestCompareFoldsRepeatedSamples: `go test -count=N` prints one line per
// sample, and the gate compares each benchmark's median, so a repeated-run
// document is clean against itself.
func TestCompareFoldsRepeatedSamples(t *testing.T) {
	rep, err := Parse(strings.NewReader("pkg: smtflex\n" +
		"BenchmarkX-1 10 100000 ns/op 4 allocs/op\n" +
		"BenchmarkX-1 10 900000 ns/op 8 allocs/op\n" +
		"BenchmarkX-2 10 700000 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	regs, err := Compare(rep, rep, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("repeated-run document not self-clean: %+v", regs)
	}
	folded := Fold(rep)
	if len(folded) != 2 {
		t.Fatalf("folded to %d results, want one per procs: %+v", len(folded), folded)
	}
	if x := folded[0]; x.Procs != 1 || x.NsPerOp != 500000 || x.Metrics["allocs/op"] != 6 {
		t.Errorf("median of BenchmarkX-1 = %+v, want 500000 ns/op, 6 allocs/op", x)
	}
	if x := folded[1]; x.Procs != 2 || x.NsPerOp != 700000 {
		t.Errorf("single-sample BenchmarkX-2 = %+v", x)
	}
}
