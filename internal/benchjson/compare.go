package benchjson

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// ErrNoResults reports a benchmark document with zero results — an empty
// trajectory artifact, which the pipeline must treat as a failure, never as
// a green run (a panicking benchmark run produces exactly this).
var ErrNoResults = errors.New("benchjson: no benchmark results parsed")

// DecodeJSON reads a Report previously encoded by cmd/benchjson (or any
// JSON in the same shape) and checks it with Validate.
func DecodeJSON(r io.Reader) (*Report, error) {
	rep := &Report{}
	dec := json.NewDecoder(r)
	if err := dec.Decode(rep); err != nil {
		return nil, fmt.Errorf("benchjson: decoding report: %w", err)
	}
	if err := rep.Validate(); err != nil {
		return nil, err
	}
	return rep, nil
}

// Validate rejects a report the gate cannot trust. Zero results fail with
// ErrNoResults: every consumer of the trajectory format treats "empty" as a
// broken pipeline, not a clean slate. A negative or non-finite iteration
// count or metric value fails too: `go test -bench` never prints one, and
// the gate's allowance arithmetic assumes non-negative values (a baseline of
// -1000 allocs/op would fail against itself).
func (r *Report) Validate() error {
	if r == nil || len(r.Results) == 0 {
		return ErrNoResults
	}
	for _, res := range r.Results {
		bad := res.Iterations < 0 || !nonNegative(res.NsPerOp)
		for _, v := range res.Metrics {
			bad = bad || !nonNegative(v)
		}
		if bad {
			return fmt.Errorf("benchjson: %s: negative or non-finite value", res.Name)
		}
	}
	return nil
}

func nonNegative(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// Fold collapses repeated samples of one benchmark (the same package, name
// and procs, as `go test -count=N` prints them) into one Result whose ns/op
// and every other metric is the median of the samples that carry it. Results
// keep the order of each benchmark's first sample. Compare and perfdiff gate
// these medians, so a repeated-run document compares clean against itself.
func Fold(r *Report) []Result {
	var out []Result
	samples := make(map[string][]Result, len(r.Results))
	for _, res := range r.Results {
		if samples[key(res)] == nil {
			out = append(out, res)
		}
		samples[key(res)] = append(samples[key(res)], res)
	}
	for i := range out {
		g := samples[key(out[i])]
		if len(g) == 1 {
			continue
		}
		ns := make([]float64, len(g))
		metrics := make(map[string][]float64)
		for j, res := range g {
			ns[j] = res.NsPerOp
			for unit, v := range res.Metrics {
				metrics[unit] = append(metrics[unit], v)
			}
		}
		out[i].NsPerOp = median(ns)
		out[i].Metrics = make(map[string]float64, len(metrics))
		for unit, vs := range metrics {
			out[i].Metrics[unit] = median(vs)
		}
	}
	return out
}

// median returns the middle of vs (the mean of the two middle values for an
// even count). It sorts vs in place.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// Limit bounds how much one benchmark may regress before the gate fails.
// Percentages are relative increases over the baseline: NsPerOpPct 300
// allows the current ns/op to reach 4x the baseline.
type Limit struct {
	// NsPerOpPct is the allowed ns/op increase in percent. Wall time on
	// shared CI runners is noisy, so this is gated loosely.
	NsPerOpPct float64
	// AllocsPerOpPct is the allowed allocs/op increase in percent.
	// Allocation counts are deterministic, so this is gated strictly.
	AllocsPerOpPct float64
	// AllocsPerOpSlack is an absolute allocs/op allowance added on top of
	// the percentage, so near-zero-allocation benchmarks (the solver hot
	// path reports 0 allocs/op) tolerate incidental runtime allocations
	// without opening a percentage hole on big benchmarks.
	AllocsPerOpSlack float64
}

// Thresholds configures a Compare run.
type Thresholds struct {
	// Default applies to every benchmark without a PerBench override.
	Default Limit
	// PerBench overrides the default limit for specific benchmarks, keyed
	// by benchmark name (the -<procs> suffix stripped, as in Result.Name).
	PerBench map[string]Limit
	// MinNsPerOp exempts benchmarks whose baseline ns/op is below this
	// floor from ns/op gating: their runtimes are dominated by timer noise.
	// Allocs are still gated. Zero gates everything.
	MinNsPerOp float64
}

// DefaultThresholds is the CI bench gate: allocs/op strictly
// (deterministic), ns/op loosely (1-core shared runners are noisy and the
// committed baseline may come from different hardware, so a run may take up
// to 5x the baseline), and no ns gating below 1µs.
func DefaultThresholds() Thresholds {
	return Thresholds{
		Default:    Limit{NsPerOpPct: 400, AllocsPerOpPct: 10, AllocsPerOpSlack: 64},
		MinNsPerOp: 1000,
	}
}

// Regression is one benchmark metric that exceeded its threshold, or a
// benchmark that vanished from the current run.
type Regression struct {
	// Name, Package and Procs identify the benchmark.
	Name    string `json:"name"`
	Package string `json:"package,omitempty"`
	Procs   int    `json:"procs"`
	// Metric is "ns/op", "allocs/op", or "missing" (the benchmark ran at
	// baseline time but produced no result now — a panic or a renamed
	// benchmark; refresh the baseline if the rename is intentional).
	Metric string `json:"metric"`
	// Baseline and Current are the metric's values (zero for "missing").
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	// Allowed is the largest Current the threshold permits.
	Allowed float64 `json:"allowed"`
}

// String renders the regression as one report line.
func (r Regression) String() string {
	if r.Metric == "missing" {
		return fmt.Sprintf("%s: missing from current run (baseline had it)", r.Name)
	}
	if r.Baseline <= 0 {
		return fmt.Sprintf("%s: %s %.6g -> %.6g (allowed <= %.6g)",
			r.Name, r.Metric, r.Baseline, r.Current, r.Allowed)
	}
	return fmt.Sprintf("%s: %s %.6g -> %.6g (allowed <= %.6g, +%.1f%%)",
		r.Name, r.Metric, r.Baseline, r.Current, r.Allowed,
		100*(r.Current-r.Baseline)/r.Baseline)
}

// key identifies a benchmark across reports.
func key(r Result) string { return r.Package + "\x00" + r.Name + "\x00" + fmt.Sprint(r.Procs) }

// Compare gates current against baseline: it returns one Regression per
// benchmark metric that regressed beyond its threshold, sorted
// worst-relative-increase first. Both sides are folded to per-benchmark
// medians first (see Fold). Benchmarks new in current are ignored (they
// have no baseline); benchmarks missing from current are regressions.
// An empty baseline or current report is an error wrapping ErrNoResults —
// an empty side means the pipeline is broken, not that nothing regressed.
func Compare(baseline, current *Report, th Thresholds) ([]Regression, error) {
	if baseline == nil || len(baseline.Results) == 0 {
		return nil, fmt.Errorf("baseline: %w", ErrNoResults)
	}
	if current == nil || len(current.Results) == 0 {
		return nil, fmt.Errorf("current: %w", ErrNoResults)
	}
	cur := make(map[string]Result, len(current.Results))
	for _, r := range Fold(current) {
		cur[key(r)] = r
	}
	var regs []Regression
	for _, base := range Fold(baseline) {
		now, ok := cur[key(base)]
		if !ok {
			regs = append(regs, Regression{Name: base.Name, Package: base.Package, Procs: base.Procs, Metric: "missing"})
			continue
		}
		lim := th.Default
		if o, ok := th.PerBench[base.Name]; ok {
			lim = o
		}
		// ns/op: loose gate, skipped under the noise floor.
		if base.NsPerOp > 0 && now.NsPerOp > 0 && base.NsPerOp >= th.MinNsPerOp {
			allowed := base.NsPerOp * (1 + lim.NsPerOpPct/100)
			if now.NsPerOp > allowed {
				regs = append(regs, Regression{
					Name: base.Name, Package: base.Package, Procs: base.Procs, Metric: "ns/op",
					Baseline: base.NsPerOp, Current: now.NsPerOp, Allowed: allowed,
				})
			}
		}
		// allocs/op: strict gate whenever the baseline measured it.
		if baseAllocs, ok := base.Metrics["allocs/op"]; ok {
			nowAllocs, ok := now.Metrics["allocs/op"]
			if !ok {
				// The current run did not measure allocations (-benchmem
				// missing): the gate cannot see regressions, so fail loud.
				regs = append(regs, Regression{
					Name: base.Name, Package: base.Package, Procs: base.Procs, Metric: "allocs/op",
					Baseline: baseAllocs, Current: -1, Allowed: baseAllocs,
				})
				continue
			}
			allowed := baseAllocs*(1+lim.AllocsPerOpPct/100) + lim.AllocsPerOpSlack
			if nowAllocs > allowed {
				regs = append(regs, Regression{
					Name: base.Name, Package: base.Package, Procs: base.Procs, Metric: "allocs/op",
					Baseline: baseAllocs, Current: nowAllocs, Allowed: allowed,
				})
			}
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		return relIncrease(regs[i]) > relIncrease(regs[j])
	})
	return regs, nil
}

// relIncrease orders regressions by severity; "missing" sorts first.
func relIncrease(r Regression) float64 {
	if r.Metric == "missing" || r.Baseline <= 0 {
		return 1e18
	}
	return (r.Current - r.Baseline) / r.Baseline
}
