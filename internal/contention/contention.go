// Package contention resolves chip-level resource sharing for the interval
// engine: given a placement of threads onto the cores of a design, it finds
// a fixed point of per-thread performance, private-cache and shared-LLC
// capacity shares (allocation-rate-weighted competition), DRAM bus and bank
// queueing, SMT dispatch-width sharing and non-SMT time sharing.
package contention

import (
	"context"
	"errors"
	"fmt"
	"math"

	"smtflex/internal/config"
	"smtflex/internal/interval"
	"smtflex/internal/machstats"
)

// ErrDiverged reports that the fixed-point iteration produced a non-finite
// value (NaN or Inf), usually from a malformed profile or injected corruption.
var ErrDiverged = errors.New("contention: solver diverged")

// ErrNotConverged reports that a solve with a positive Model.Tolerance ran
// out of iterations before the residual dropped below the tolerance.
var ErrNotConverged = errors.New("contention: solver did not converge")

// Placement assigns threads to cores of a design.
type Placement struct {
	// Design is the multi-core design point.
	Design config.Design
	// CoreOf[i] is the index of the core thread i runs on.
	CoreOf []int
	// Profiles[i] is thread i's profile measured on the type of its core.
	Profiles []*interval.Profile
}

// Validate reports structural errors.
func (p Placement) Validate() error {
	if err := p.Design.Validate(); err != nil {
		return err
	}
	if len(p.CoreOf) != len(p.Profiles) {
		return fmt.Errorf("contention: %d core assignments but %d profiles", len(p.CoreOf), len(p.Profiles))
	}
	for i, c := range p.CoreOf {
		if c < 0 || c >= len(p.Design.Cores) {
			return fmt.Errorf("contention: thread %d on core %d, design has %d cores", i, c, len(p.Design.Cores))
		}
		if p.Profiles[i] == nil {
			return fmt.Errorf("contention: thread %d has nil profile", i)
		}
		if want := p.Design.Cores[c].Type; p.Profiles[i].Core != want {
			return fmt.Errorf("contention: thread %d profile is for %v core but placed on %v", i, p.Profiles[i].Core, want)
		}
	}
	return nil
}

// ThreadResult is the converged state of one thread.
type ThreadResult struct {
	// Stack is the predicted CPI decomposition.
	Stack interval.CPIStack
	// IPC is µops per core cycle while running (after SMT width sharing).
	IPC float64
	// TimeShare is the fraction of time the thread runs (1 with SMT, 1/k
	// when k threads time-share a context).
	TimeShare float64
	// UopsPerNs is the thread's absolute progress rate.
	UopsPerNs float64
	// Shares are the converged capacity shares and memory latency.
	Shares interval.Shares
}

// Diagnostics reports how the fixed-point iteration went: how many
// iterations ran, the final relative residual (the largest relative change
// any state variable saw in the last iteration), and whether the loop
// terminated by convergence rather than by exhausting its iteration budget.
type Diagnostics struct {
	// Iterations is the number of iterations executed.
	Iterations int `json:"iterations"`
	// Residual is the last iteration's maximum relative state change.
	Residual float64 `json:"residual"`
	// Converged reports termination by residual <= tolerance (with the
	// default zero tolerance: an iteration that changed nothing at all).
	Converged bool `json:"converged"`
}

// Result is the converged chip state.
type Result struct {
	Threads []ThreadResult
	// MemLatencyNs is the contended DRAM latency in nanoseconds.
	MemLatencyNs float64
	// BusUtilization is the off-chip bus utilization in [0,1].
	BusUtilization float64
	// CoreUtilization[c] is Σ IPC / width for core c (the power model's
	// activity factor).
	CoreUtilization []float64
	// Diag describes the solver's convergence behaviour.
	Diag Diagnostics
}

const (
	dramAccessNs = 45.0
	dramBanks    = 8
	blockBytes   = 64
	iterations   = 60
	damping      = 0.5
	// rhoCap keeps the queueing model finite at saturation. Calibrated so
	// that a fully saturated bus inflates memory latency by roughly the 4x
	// the paper reports for libquantum at 24 threads (0.98 would give ~7x).
	rhoCap = 0.95
)

// memLatencyNs returns the contended DRAM latency for an offered load in
// blocks per nanosecond, using an M/D/1 bus queue plus bank contention.
func memLatencyNs(blocksPerNs, bandwidthGBps float64) float64 {
	service := blockBytes / bandwidthGBps // ns per block on the bus
	rho := math.Min(blocksPerNs*service, rhoCap)
	busWait := rho * service / (2 * (1 - rho))
	bankRho := math.Min(blocksPerNs*dramAccessNs/dramBanks, rhoCap)
	bankWait := bankRho * dramAccessNs / (2 * (1 - bankRho))
	return dramAccessNs + service + busWait + bankWait
}

// Solve iterates to a fixed point with the calibrated default model. It
// uses a fresh Solver, so the Result owns its memory; hot loops that solve
// many placements reuse a Solver (or the package's solver pool) instead.
func Solve(p Placement) (Result, error) {
	return SolveModel(p, DefaultModel())
}

// SolveCtx is Solve with tracing: when ctx carries an active trace, the
// solve is recorded as a "contention.solve" span annotated with the thread
// count and the solver's convergence diagnostics. The numerical result is
// identical to Solve.
func SolveCtx(ctx context.Context, p Placement) (Result, error) {
	return SolveModelCtx(ctx, p, DefaultModel())
}

// SolveModelCtx is SolveModel with the same span instrumentation as SolveCtx.
func SolveModelCtx(ctx context.Context, p Placement, m Model) (Result, error) {
	var s Solver
	return s.SolveModelCtx(ctx, p, m)
}

// SolveModel is Solve with explicit model choices (see Model); the ablation
// studies use it to quantify each mechanism's contribution. The solve runs
// on a fresh Solver, so per-solve state is allocated once per call and never
// per iteration; repeated solves in a loop should reuse a Solver directly.
func SolveModel(p Placement, m Model) (Result, error) {
	var s Solver
	return s.SolveModel(p, m)
}

// publishMachStats records the converged solve into the machine-counter
// registry: one interval-engine CPI-stack record per thread plus solver
// counters. A no-op costing one atomic load while machstats is disabled;
// the solve's numerical result is never touched.
func publishMachStats(p Placement, res Result) {
	if !machstats.Enabled() {
		return
	}
	machstats.Add("interval.solver.solves", 1)
	machstats.Add("interval.solver.iterations", uint64(res.Diag.Iterations))
	machstats.Add("interval.threads_solved", uint64(len(res.Threads)))
	for i, tr := range res.Threads {
		machstats.RecordStack(machstats.StackRecord{
			Engine:     "interval",
			Design:     p.Design.Name,
			Benchmark:  p.Profiles[i].Benchmark,
			Core:       p.CoreOf[i],
			Thread:     i,
			Components: tr.Stack.Components(),
		})
	}
}

// smtOccupancy returns how many threads concurrently share the core's
// pipeline and the per-thread time share. Without SMT, one thread runs at a
// time; with SMT, up to SMTContexts run concurrently and any excess
// time-shares the contexts.
func smtOccupancy(cc *config.Core, smtEnabled bool, nThreads int) (coRunners int, timeShare float64) {
	if !smtEnabled {
		return 1, 1 / float64(nThreads)
	}
	if nThreads <= cc.SMTContexts {
		return nThreads, 1
	}
	return cc.SMTContexts, float64(cc.SMTContexts) / float64(nThreads)
}

// damp blends an old and a new value to stabilize the fixed point; f is the
// weight of the old value.
func damp(old, new, f float64) float64 {
	if old == 0 {
		return new
	}
	return f*old + (1-f)*new
}

// relChange returns |new-old| scaled by the larger magnitude, or exactly
// zero when the value did not change at all.
func relChange(old, new float64) float64 {
	if old == new {
		return 0
	}
	return math.Abs(new-old) / fmax(math.Abs(old), math.Abs(new))
}

// fmax returns math.Max(x, y). Ordered operands are decided by one inline
// comparison; ties and NaNs fall through to math.Max, so its special cases
// (±0, NaN, +Inf) apply unchanged. The solver calls it several times per
// thread per iteration, where math.Max's out-of-line call showed in profiles.
func fmax(x, y float64) float64 {
	if x > y {
		return x
	}
	if y > x {
		return y
	}
	return math.Max(x, y)
}

// finiteState reports whether the scalar and every slice element are finite.
// The slices are explicit (not variadic) so the per-iteration call in the
// solver's hot loop cannot allocate a backing array for the pack.
func finiteState(scalar float64, a, b, c, d []float64) bool {
	if !finite(scalar) {
		return false
	}
	for _, s := range [...][]float64{a, b, c, d} {
		for _, v := range s {
			if !finite(v) {
				return false
			}
		}
	}
	return true
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// normalizeShares rescales all entries so they sum to capacity.
func normalizeShares(shares []float64, capacity float64) {
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if sum <= 0 {
		return
	}
	f := capacity / sum
	for i := range shares {
		shares[i] *= f
	}
}

// normalizeSlice rescales the entries indexed by ths to sum to capacity.
func normalizeSlice(shares []float64, ths []int, capacity float64) {
	var sum float64
	for _, ti := range ths {
		sum += shares[ti]
	}
	if sum <= 0 {
		return
	}
	f := capacity / sum
	for _, ti := range ths {
		shares[ti] *= f
	}
}
