package perfdiff_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"smtflex/internal/benchjson"
	"smtflex/internal/config"
	"smtflex/internal/contention"
	"smtflex/internal/faults"
	"smtflex/internal/machstats"
	"smtflex/internal/obs"
	"smtflex/internal/perfdiff"
	"smtflex/internal/profiler"
	"smtflex/internal/workload"
)

// shared profiling source: measuring profiles is the expensive part, so the
// engine-backed tests in this package reuse one cache.
var (
	srcOnce sync.Once
	src     *profiler.Source
)

func source() *profiler.Source {
	srcOnce.Do(func() { src = profiler.NewSource(60_000) })
	return src
}

// place builds a placement of the given benchmarks round-robin over the
// design's cores.
func place(t *testing.T, designName string, benches ...string) contention.Placement {
	t.Helper()
	d, err := config.DesignByName(designName, true)
	if err != nil {
		t.Fatal(err)
	}
	p := contention.Placement{Design: d}
	for i, b := range benches {
		c := i % d.NumCores()
		spec, err := workload.ByName(b)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := source().Profile(spec, d.Cores[c].Type)
		if err != nil {
			t.Fatal(err)
		}
		p.CoreOf = append(p.CoreOf, c)
		p.Profiles = append(p.Profiles, prof)
	}
	return p
}

// solveSnapshot runs solves traced solves of pl under one root trace and
// captures a perf snapshot from the collected state: the same pipeline a
// live daemon's /debug/perfsnap walks, minus HTTP.
func solveSnapshot(t *testing.T, pl contention.Placement, solves int) *perfdiff.Snapshot {
	t.Helper()
	col := obs.NewCollector(4)
	iters := obs.NewHistogram(perfdiff.SolverIterBuckets)
	ctx, root := obs.StartTrace(context.Background(), col, "bench.solve")
	s := contention.NewSolver()
	for i := 0; i < solves; i++ {
		res, err := s.SolveModelCtx(ctx, pl, contention.Model{})
		if err != nil {
			t.Fatal(err)
		}
		iters.Observe(float64(res.Diag.Iterations))
	}
	root.End()
	mach := machstats.Default().Snapshot()
	return perfdiff.Capture(perfdiff.CaptureOpts{
		Role:   "test",
		Traces: col.Snapshots(),
		Mach:   &mach,
		Histograms: []perfdiff.HistogramState{
			perfdiff.HistState(perfdiff.HistSolverIterations, iters.Snapshot()),
		},
	})
}

// TestDiffSelfClean is the self-cleanliness acceptance criterion: two
// snapshots of the same build doing the same work must report no deltas over
// the default noise floor — the analog of TestCommittedBaselineIsSelfClean
// for the bench gate.
func TestDiffSelfClean(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	machstats.Enable()
	defer machstats.Disable()
	pl := place(t, "4B", "tonto", "gcc", "mcf", "hmmer", "soplex", "bzip2")

	machstats.Reset()
	base := solveSnapshot(t, pl, 100)
	machstats.Reset()
	cur := solveSnapshot(t, pl, 100)
	machstats.Reset()

	rep, err := perfdiff.Diff(base, cur, perfdiff.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exceeded != 0 {
		t.Fatalf("same-build diff not self-clean: %d exceeded\n%s", rep.Exceeded, rep.RenderText())
	}
	if len(rep.Deltas) == 0 {
		t.Fatal("diff of two captured snapshots reported no deltas at all (capture broken?)")
	}
	// The identical solver work must make identical histograms, bit for bit.
	for _, d := range rep.Deltas {
		if d.Kind == "quantile" && d.Baseline != d.Current {
			t.Errorf("quantile %s/%s differs on identical work: %g vs %g", d.Group, d.Metric, d.Baseline, d.Current)
		}
	}
}

// TestDiffRanksInjectedSolveRegression is the attribution acceptance
// criterion: slow the solver synthetically (faults latency at every solver
// iteration) and the diff must rank contention.solve as the top regression.
func TestDiffRanksInjectedSolveRegression(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	pl := place(t, "4B", "tonto", "gcc", "mcf", "hmmer")

	base := solveSnapshot(t, pl, 10)

	faults.Enable(faults.SiteSolver, faults.Injection{Mode: faults.ModeLatency, Latency: 50 * time.Microsecond})
	defer faults.Reset()
	cur := solveSnapshot(t, pl, 10)
	faults.Reset()

	rep, err := perfdiff.Diff(base, cur, perfdiff.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exceeded == 0 {
		t.Fatalf("injected solver latency not detected\n%s", rep.RenderText())
	}
	top := rep.Deltas[0]
	if top.Kind != "phase" || top.Metric != obs.CatSolve || !top.Exceeds {
		t.Fatalf("top delta is %s/%s/%s (exceeds=%v), want phase/%s regression\n%s",
			top.Kind, top.Group, top.Metric, top.Exceeds, obs.CatSolve, rep.RenderText())
	}
	// The injection slows wall time but must not change solver arithmetic:
	// iteration-count quantiles stay bit-identical, proving the report
	// attributes the slowdown to time, not to behavior.
	for _, d := range rep.Deltas {
		if d.Kind == "quantile" && d.Exceeds {
			t.Errorf("iteration quantile flagged under pure latency injection: %+v", d)
		}
	}
}

// TestSnapshotSchemaLocked locks the JSON field names of every snapshot
// section: renaming a field breaks every archived baseline, so it must break
// this test first.
func TestSnapshotSchemaLocked(t *testing.T) {
	snap := &perfdiff.Snapshot{
		SchemaVersion: perfdiff.SchemaVersion,
		CapturedAt:    time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC),
		Build:         perfdiff.Build{GoVersion: "go", Revision: "r", Module: "m", Version: "v"},
		Role:          "test",
		TimeStacks: []obs.TimeStack{{
			Name: "g", Traces: 1, WallNs: 10,
			ByNs: map[string]int64{"solve": 10}, Percent: map[string]float64{"solve": 100},
		}},
		MachStats: &machstats.Snapshot{
			Counters: []machstats.CounterSample{{Name: "c", Value: 1}},
			Cycles:   []machstats.CycleSample{{Name: "y", Cycles: 2}},
			Stacks: []machstats.StackRecord{{
				Engine: "interval", Design: "4B", Benchmark: "gcc",
				Components: []machstats.Component{{Name: "base", CPI: 1}},
			}},
		},
		Histograms: []perfdiff.HistogramState{{Name: "h", Bounds: []float64{1}, Cumulative: []int64{1}, Count: 1, Sum: 1}},
		Caches:     []perfdiff.CacheCounter{{Name: "p", Hits: 1, Misses: 2, Coalesced: 3, Entries: 4}},
		Bench:      &benchjson.Report{Results: []benchjson.Result{{Name: "B", Procs: 1, Iterations: 1, NsPerOp: 2}}},
		Profiles:   []perfdiff.Profile{{Kind: "cpu", CapturedAt: time.Date(2026, 1, 2, 3, 4, 6, 0, time.UTC), DurMs: 100, Data: []byte{1}}},
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{
		"schema_version", "captured_at", "build", "role", "time_stacks",
		"machstats", "histograms", "caches", "bench", "profiles",
	}
	for _, k := range wantKeys {
		if _, ok := doc[k]; !ok {
			t.Errorf("snapshot JSON missing locked key %q", k)
		}
	}
	if len(doc) != len(wantKeys) {
		t.Errorf("snapshot JSON has %d top-level keys, schema locks %d: %s", len(doc), len(wantKeys), data)
	}
	for section, keys := range map[string][]string{
		"build":      {"go_version", "revision", "module", "version"},
		"histograms": {"name", "bounds", "cumulative", "count", "sum"},
		"caches":     {"name", "hits", "misses", "coalesced", "entries"},
		"profiles":   {"kind", "captured_at", "dur_ms", "data"},
	} {
		var raw any
		if err := json.Unmarshal(doc[section], &raw); err != nil {
			t.Fatalf("%s: %v", section, err)
		}
		obj, ok := raw.(map[string]any)
		if !ok {
			obj = raw.([]any)[0].(map[string]any)
		}
		for _, k := range keys {
			if _, present := obj[k]; !present {
				t.Errorf("%s JSON missing locked key %q", section, k)
			}
		}
		if len(obj) != len(keys) {
			t.Errorf("%s JSON has %d keys, schema locks %d", section, len(obj), len(keys))
		}
	}

	// And the document round-trips losslessly.
	back := &perfdiff.Snapshot{}
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Errorf("snapshot does not round-trip:\n%+v\nvs\n%+v", snap, back)
	}
}

func TestSnapshotWriteReadAtomic(t *testing.T) {
	dir := t.TempDir()
	snap := perfdiff.Capture(perfdiff.CaptureOpts{Role: "test"})
	path := filepath.Join(dir, "snap.json")
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := perfdiff.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Role != "test" || back.SchemaVersion != perfdiff.SchemaVersion {
		t.Errorf("round trip lost fields: %+v", back)
	}
	// Atomic write leaves no temp droppings.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}
	// WriteDir stamps the filename.
	p2, err := snap.WriteDir(dir, "perfsnap")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(filepath.Base(p2), "perfsnap-") || !strings.HasSuffix(p2, ".json") {
		t.Errorf("WriteDir name %q", p2)
	}
}

func TestValidateRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "old.json")
	if err := os.WriteFile(path, []byte(`{"schema_version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := perfdiff.ReadFile(path); err == nil {
		t.Fatal("schema version 99 accepted")
	}
	wrong := &perfdiff.Snapshot{SchemaVersion: 2}
	if _, err := perfdiff.Diff(wrong, wrong, perfdiff.DefaultThresholds()); err == nil {
		t.Fatal("Diff accepted mismatched schema version")
	}
	// Right version, but a shape Diff cannot compare: a histogram whose
	// counts do not match its bounds (Quantile would index past them), a
	// name listed twice (a document would not diff clean against itself),
	// or an embedded bench report benchjson rejects.
	for _, doc := range []string{
		`{"schema_version":1,"histograms":[{"name":"h","bounds":[1,2],"cumulative":[1],"count":1}]}`,
		`{"schema_version":1,"histograms":[{"name":"h","count":1,"sum":1},{"name":"h","count":1,"sum":9}]}`,
		`{"schema_version":1,"time_stacks":[{"name":"g","traces":1},{"name":"g","traces":2}]}`,
		`{"schema_version":1,"bench":{"results":[]}}`,
		`{"schema_version":1,"bench":{"results":[{"name":"B","procs":1,"iterations":1,"ns_per_op":1,"metrics":{"allocs/op":-1000}}]}}`,
	} {
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := perfdiff.ReadAuto(path); err == nil {
			t.Errorf("malformed snapshot accepted: %s", doc)
		}
	}
}

func TestReadAutoWrapsBenchReport(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "bench.json")
	raw := `{"results":[{"name":"BenchmarkX","procs":1,"iterations":10,"ns_per_op":100,"metrics":{"allocs/op":5}}]}`
	if err := os.WriteFile(bench, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := perfdiff.ReadAuto(bench)
	if err != nil {
		t.Fatal(err)
	}
	if s.Bench == nil || len(s.Bench.Results) != 1 || s.Bench.Results[0].Name != "BenchmarkX" {
		t.Fatalf("benchjson not wrapped: %+v", s)
	}
	// A real snapshot reads through the same entry point.
	snapPath := filepath.Join(dir, "snap.json")
	if err := perfdiff.Capture(perfdiff.CaptureOpts{Role: "x"}).WriteFile(snapPath); err != nil {
		t.Fatal(err)
	}
	if s, err = perfdiff.ReadAuto(snapPath); err != nil || s.Role != "x" {
		t.Fatalf("snapshot through ReadAuto: %v %+v", err, s)
	}
	// Garbage is neither.
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"hello": 1}`), 0o644)
	if _, err := perfdiff.ReadAuto(bad); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestDiffBenchEmbedded(t *testing.T) {
	mkSnap := func(ns, allocs float64) *perfdiff.Snapshot {
		return perfdiff.Capture(perfdiff.CaptureOpts{Bench: &benchjson.Report{Results: []benchjson.Result{{
			Name: "BenchmarkSolve", Procs: 1, Iterations: 10, NsPerOp: ns,
			Metrics: map[string]float64{"allocs/op": allocs},
		}}}})
	}
	rep, err := perfdiff.Diff(mkSnap(10_000, 0), mkSnap(100_000, 500), perfdiff.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exceeded == 0 {
		t.Fatalf("10x ns/op + 500 allocs not flagged\n%s", rep.RenderText())
	}
	var kinds []string
	for _, d := range rep.Deltas {
		if d.Exceeds {
			kinds = append(kinds, d.Kind+"/"+d.Metric)
		}
	}
	want := map[string]bool{"bench/ns/op": false, "bench/allocs/op": false}
	for _, k := range kinds {
		want[k] = true
	}
	for k, hit := range want {
		if !hit {
			t.Errorf("expected exceeding delta %s, got %v", k, kinds)
		}
	}
}

func TestDiffQuantileShift(t *testing.T) {
	mk := func(vals ...float64) perfdiff.HistogramState {
		h := obs.NewHistogram(perfdiff.SolverIterBuckets)
		for _, v := range vals {
			h.Observe(v)
		}
		return perfdiff.HistState(perfdiff.HistSolverIterations, h.Snapshot())
	}
	base := perfdiff.Capture(perfdiff.CaptureOpts{Histograms: []perfdiff.HistogramState{mk(3, 3, 3, 3)}})
	cur := perfdiff.Capture(perfdiff.CaptureOpts{Histograms: []perfdiff.HistogramState{mk(120, 120, 120, 120)}})
	rep, err := perfdiff.Diff(base, cur, perfdiff.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exceeded == 0 {
		t.Fatalf("40x iteration shift not flagged\n%s", rep.RenderText())
	}
	if top := rep.Deltas[0]; top.Kind != "quantile" || top.Group != perfdiff.HistSolverIterations {
		t.Errorf("top delta %+v, want quantile shift", top)
	}
	// Identical histograms stay clean.
	rep, err = perfdiff.Diff(base, base, perfdiff.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exceeded != 0 {
		t.Errorf("identical histograms flagged\n%s", rep.RenderText())
	}
}

func TestDiffCPIShift(t *testing.T) {
	mk := func(memCPI float64) *perfdiff.Snapshot {
		return perfdiff.Capture(perfdiff.CaptureOpts{Mach: &machstats.Snapshot{Stacks: []machstats.StackRecord{{
			Engine: "interval", Design: "4B", Benchmark: "gcc",
			Components: []machstats.Component{{Name: "base", CPI: 0.5}, {Name: "mem", CPI: memCPI}},
		}}}})
	}
	rep, err := perfdiff.Diff(mk(0.2), mk(0.9), perfdiff.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	var flagged *perfdiff.Delta
	for i := range rep.Deltas {
		if rep.Deltas[i].Exceeds {
			flagged = &rep.Deltas[i]
		}
	}
	if flagged == nil || flagged.Kind != "cpi" || flagged.Metric != "mem" || flagged.Group != "interval" {
		t.Fatalf("mem CPI 0.2->0.9 not attributed: %+v\n%s", flagged, rep.RenderText())
	}
	// base stayed put and must not be flagged.
	for _, d := range rep.Deltas {
		if d.Metric == "base" && d.Exceeds {
			t.Errorf("unchanged base component flagged: %+v", d)
		}
	}
}

// TestDiffQuantiles pins the comparator the daemon's drift check calls, at
// its 50% tolerance.
func TestDiffQuantiles(t *testing.T) {
	mk := func(vals ...float64) []perfdiff.HistogramState {
		h := obs.NewHistogram(perfdiff.SolverIterBuckets)
		for _, v := range vals {
			h.Observe(v)
		}
		return []perfdiff.HistogramState{perfdiff.HistState(perfdiff.HistSolverIterations, h.Snapshot())}
	}
	drift := perfdiff.Thresholds{QuantilePct: 50, QuantileMin: 1e-3}
	exceeding := func(ds []perfdiff.Delta) []perfdiff.Delta {
		var out []perfdiff.Delta
		for _, d := range ds {
			if d.Exceeds {
				out = append(out, d)
			}
		}
		return out
	}
	base := mk(3, 3, 3, 3)
	ds := perfdiff.DiffQuantiles(base, mk(3, 3, 3, 3), drift)
	if len(ds) != 3 {
		t.Errorf("identical state: %d rows, want p50/p95/p99", len(ds))
	}
	if over := exceeding(ds); len(over) != 0 {
		t.Errorf("identical state drifted: %+v", over)
	}
	over := exceeding(perfdiff.DiffQuantiles(base, mk(120, 120, 120, 120), drift))
	if len(over) == 0 {
		t.Fatal("40x shift not detected")
	}
	if over[0].Kind != "quantile" || over[0].Group != perfdiff.HistSolverIterations {
		t.Errorf("drift %+v", over[0])
	}
	// Histograms absent from the baseline never fire.
	if ds := perfdiff.DiffQuantiles(nil, mk(120), drift); len(ds) != 0 {
		t.Errorf("baseline-free comparison produced rows: %+v", ds)
	}
}

// benchDeltas diffs two bench-only snapshots and returns the bench rows
// keyed "group metric", with the report.
func benchDeltas(t *testing.T, base, cur []benchjson.Result, th perfdiff.Thresholds) (map[string]perfdiff.Delta, *perfdiff.Report) {
	t.Helper()
	rep, err := perfdiff.Diff(
		perfdiff.Capture(perfdiff.CaptureOpts{Bench: &benchjson.Report{Results: base}}),
		perfdiff.Capture(perfdiff.CaptureOpts{Bench: &benchjson.Report{Results: cur}}), th)
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]perfdiff.Delta)
	for _, d := range rep.Deltas {
		if d.Kind != "bench" {
			t.Fatalf("non-bench row %+v", d)
		}
		rows[d.Group+" "+d.Metric] = d
	}
	return rows, rep
}

func bres(name string, ns, allocs float64) benchjson.Result {
	return benchjson.Result{
		Name: name, Package: "smtflex", Procs: 8, Iterations: 1, NsPerOp: ns,
		Metrics: map[string]float64{"allocs/op": allocs, "B/op": allocs * 48},
	}
}

func TestDiffBenchSignedDeltas(t *testing.T) {
	rows, rep := benchDeltas(t,
		[]benchjson.Result{bres("BenchmarkFast", 1e6, 100), bres("BenchmarkSlow", 2e6, 0)},
		[]benchjson.Result{bres("BenchmarkFast", 1.5e6, 100), bres("BenchmarkSlow", 1e6, 0)},
		perfdiff.DefaultThresholds())
	if rep.Exceeded != 0 {
		t.Fatalf("moves inside the gate flagged:\n%s", rep.RenderText())
	}
	// Regressions and improvements both carry explicit signs.
	if d := rows["BenchmarkFast ns/op"]; d.Rel() != 0.5 {
		t.Errorf("regression row %+v, want +50%%", d)
	}
	if d := rows["BenchmarkSlow ns/op"]; d.Rel() != -0.5 {
		t.Errorf("improvement row %+v, want -50%%", d)
	}
	text := rep.RenderText()
	if !strings.Contains(text, "+50.0%") || !strings.Contains(text, "-50.0%") {
		t.Errorf("rendered deltas unsigned:\n%s", text)
	}
	if len(rows) != 4 {
		t.Errorf("%d rows, want ns/op and allocs/op for both benchmarks: %v", len(rows), rows)
	}
}

func TestDiffBenchFlagsRegressions(t *testing.T) {
	th := perfdiff.DefaultThresholds()
	th.Bench = benchjson.Thresholds{Default: benchjson.Limit{NsPerOpPct: 10, AllocsPerOpPct: 10}, MinNsPerOp: 1000}
	rows, rep := benchDeltas(t,
		[]benchjson.Result{bres("BenchmarkA", 1e6, 100), bres("BenchmarkB", 1e6, 100)},
		[]benchjson.Result{bres("BenchmarkA", 2e6, 150), bres("BenchmarkB", 1e6, 100)}, th)
	if rep.Exceeded != 2 || !rows["BenchmarkA ns/op"].Exceeds || !rows["BenchmarkA allocs/op"].Exceeds {
		t.Errorf("want ns/op and allocs/op of BenchmarkA over:\n%s", rep.RenderText())
	}
	if rows["BenchmarkB ns/op"].Exceeds || rows["BenchmarkB allocs/op"].Exceeds {
		t.Errorf("unchanged benchmark flagged:\n%s", rep.RenderText())
	}
	if !rep.Deltas[0].Exceeds || !rep.Deltas[1].Exceeds {
		t.Errorf("regressions not ranked first:\n%s", rep.RenderText())
	}
}

func TestDiffBenchMissingAndNew(t *testing.T) {
	rows, rep := benchDeltas(t,
		[]benchjson.Result{bres("BenchmarkGone", 1e6, 0), bres("BenchmarkKept", 1e6, 0)},
		[]benchjson.Result{bres("BenchmarkKept", 1e6, 0), bres("BenchmarkNew", 1e6, 0)},
		perfdiff.DefaultThresholds())
	if d := rows["BenchmarkGone missing"]; !d.Exceeds || d.Note != "missing from current run" {
		t.Errorf("missing row %+v", d)
	}
	if d := rows["BenchmarkNew ns/op"]; d.Exceeds || d.Note != "new in current" || d.Current != 1e6 {
		t.Errorf("new row %+v", d)
	}
	if rep.Exceeded != 1 {
		t.Errorf("only the missing benchmark gates:\n%s", rep.RenderText())
	}
}

func TestDiffBenchNoAllocsMetric(t *testing.T) {
	bare := benchjson.Result{Name: "BenchmarkBare", Package: "smtflex", Procs: 8, Iterations: 1, NsPerOp: 1e6}
	rows, rep := benchDeltas(t, []benchjson.Result{bare}, []benchjson.Result{bare}, perfdiff.DefaultThresholds())
	if _, ok := rows["BenchmarkBare ns/op"]; !ok || len(rows) != 1 || rep.Exceeded != 0 {
		t.Errorf("alloc-less benchmark: want one clean ns/op row, got\n%s", rep.RenderText())
	}
}

func TestDiffBenchAllocsNotMeasured(t *testing.T) {
	unmeasured := benchjson.Result{Name: "BenchmarkA", Package: "smtflex", Procs: 8, Iterations: 1, NsPerOp: 1e6}
	rows, rep := benchDeltas(t, []benchjson.Result{bres("BenchmarkA", 1e6, 10)}, []benchjson.Result{unmeasured},
		perfdiff.DefaultThresholds())
	// A run without -benchmem cannot show an allocation regression, so the
	// gate fails loud rather than pass blind.
	if d := rows["BenchmarkA allocs/op"]; !d.Exceeds || d.Note != "not measured in current run" {
		t.Errorf("allocs row %+v\n%s", d, rep.RenderText())
	}
	if rows["BenchmarkA ns/op"].Exceeds {
		t.Errorf("unchanged ns/op flagged")
	}
}

// TestDiffBenchFoldsRepeatedSamples: a `-count=2` document compares each
// benchmark's median, so it is clean against itself.
func TestDiffBenchFoldsRepeatedSamples(t *testing.T) {
	runs := []benchjson.Result{bres("BenchmarkX", 100_000, 1), bres("BenchmarkX", 900_000, 3)}
	rows, rep := benchDeltas(t, runs, runs, perfdiff.DefaultThresholds())
	if rep.Exceeded != 0 {
		t.Fatalf("repeated-run document not self-clean:\n%s", rep.RenderText())
	}
	if d := rows["BenchmarkX ns/op"]; len(rows) != 2 || d.Baseline != 500_000 || d.Current != 500_000 {
		t.Errorf("want one median row per metric, got %v", rows)
	}
}

// TestCaptureHeapProfile sanity-checks the heap capture used by ?pprof=1.
func TestCaptureHeapProfile(t *testing.T) {
	p, err := perfdiff.CaptureHeapProfile()
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != "heap" || len(p.Data) == 0 {
		t.Errorf("heap profile %q with %d bytes", p.Kind, len(p.Data))
	}
}

// FuzzReadAuto fuzzes the gate's input reader: whatever ReadAuto accepts
// must validate and diff clean against itself, and nothing may panic.
func FuzzReadAuto(f *testing.F) {
	h := obs.NewHistogram(perfdiff.SolverIterBuckets)
	h.Observe(3)
	snap := perfdiff.Capture(perfdiff.CaptureOpts{
		Role:       "fuzz",
		Histograms: []perfdiff.HistogramState{perfdiff.HistState(perfdiff.HistSolverIterations, h.Snapshot())},
		Bench:      &benchjson.Report{Results: []benchjson.Result{bres("BenchmarkA", 1e6, 10)}},
	})
	snap.TimeStacks = []obs.TimeStack{{Name: "sweep", Traces: 2, WallNs: 4e6, ByNs: map[string]int64{obs.CatSolve: 4e6}}}
	snap.MachStats = &machstats.Snapshot{Stacks: []machstats.StackRecord{{
		Engine: "interval", Components: []machstats.Component{{Name: "base", CPI: 0.5}},
	}}}
	data, err := snap.MarshalIndent()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"results":[{"name":"BenchmarkA","procs":1,"iterations":10,"ns_per_op":100,"metrics":{"allocs/op":5}},` +
		`{"name":"BenchmarkA","procs":1,"iterations":10,"ns_per_op":900,"metrics":{"allocs/op":7}}]}`))
	f.Add([]byte("\x00garbage{"))
	f.Add([]byte(`{"schema_version": 99}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "in.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := perfdiff.ReadAuto(path)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted snapshot fails Validate: %v", err)
		}
		rep, err := perfdiff.Diff(s, s, perfdiff.DefaultThresholds())
		if err != nil {
			t.Fatalf("accepted input does not diff against itself: %v", err)
		}
		if rep.Exceeded != 0 {
			t.Fatalf("accepted input not self-clean:\n%s", rep.RenderText())
		}
	})
}
