// Package core is the library facade: a Simulator that owns the profiling
// source and the study state, exposes the multi-core design space, evaluates
// workloads on design points with either engine, and regenerates every
// table and figure of the paper.
//
// Typical use:
//
//	sim := core.NewSimulator()
//	res, _ := sim.RunMix("4B", true, []string{"mcf", "tonto", "hmmer"})
//	fmt.Println(res.STP)
//
//	tab, _ := sim.Figure("fig8")
//	fmt.Println(tab)
package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"smtflex/internal/config"
	"smtflex/internal/cpu"
	"smtflex/internal/journal"
	"smtflex/internal/multicore"
	"smtflex/internal/parallel"
	"smtflex/internal/profiler"
	"smtflex/internal/study"
	"smtflex/internal/timeline"
	"smtflex/internal/workload"
)

// Simulator bundles the profiling source and cached study state. It is safe
// for concurrent use. The zero value is not usable; call NewSimulator.
type Simulator struct {
	src *profiler.Source
	st  *study.Study

	// mu guards the campaign journal bound by Resume and the figure
	// payloads it held when opened.
	mu        sync.Mutex
	journal   *journal.Journal
	journaled map[string][]byte
}

// Option configures a Simulator.
type Option func(*settings)

type settings struct {
	uopCount      uint64
	mixesPerCount int
	seed          int64
	parallelism   int
	cacheCap      int
}

// WithUopCount sets the cycle-engine measurement length per profiling run.
// Larger values give better-calibrated profiles at higher one-time cost.
func WithUopCount(n uint64) Option {
	return func(s *settings) { s.uopCount = n }
}

// WithMixesPerCount sets the number of random heterogeneous mixes evaluated
// per thread count (the paper uses 12).
func WithMixesPerCount(n int) Option {
	return func(s *settings) { s.mixesPerCount = n }
}

// WithSeed sets the workload-construction seed.
func WithSeed(seed int64) Option {
	return func(s *settings) { s.seed = seed }
}

// WithParallelism bounds the experiment engine's worker pool. Zero (the
// default) means GOMAXPROCS; one forces the serial engine. Results are
// bit-for-bit identical at every setting.
func WithParallelism(n int) Option {
	return func(s *settings) { s.parallelism = n }
}

// WithCacheCap bounds the design-sweep cache at n entries with LRU
// eviction — for long-running servers whose request history would otherwise
// grow the cache without limit. Zero (the default) keeps every sweep
// forever, the right choice for batch runs that regenerate fixed figure
// sets.
func WithCacheCap(n int) Option {
	return func(s *settings) { s.cacheCap = n }
}

// NewSimulator returns a Simulator with the paper's defaults.
func NewSimulator(opts ...Option) *Simulator {
	cfg := settings{uopCount: 200_000, mixesPerCount: 12, seed: 20140301}
	for _, o := range opts {
		o(&cfg)
	}
	src := profiler.NewSource(cfg.uopCount)
	st := study.New(src)
	st.MixesPerCount = cfg.mixesPerCount
	st.Seed = cfg.seed
	st.Parallelism = cfg.parallelism
	if cfg.cacheCap > 0 {
		st.BoundCaches(cfg.cacheCap)
	}
	return &Simulator{src: src, st: st}
}

// Study exposes the experiment driver layer for advanced use.
func (s *Simulator) Study() *study.Study { return s.st }

// Source exposes the profiling source for advanced use.
func (s *Simulator) Source() *profiler.Source { return s.src }

// Benchmarks lists the available multi-program benchmark names.
func (s *Simulator) Benchmarks() []string { return workload.Names() }

// ParallelApps lists the available multi-threaded application names.
func (s *Simulator) ParallelApps() []string { return parallel.AppNames() }

// Designs returns the nine power-equivalent design points.
func (s *Simulator) Designs(smt bool) []config.Design { return config.NineDesigns(smt) }

// RunMix evaluates a multi-program workload (one benchmark name per thread)
// on the named design using the interval engine, and returns system metrics.
func (s *Simulator) RunMix(designName string, smt bool, programs []string) (study.MixResult, error) {
	return s.RunMixCtx(context.Background(), designName, smt, programs)
}

// RunMixCtx is RunMix with observability: when ctx carries an active trace
// (see internal/obs), the placement, contention solve and profile lookups
// are recorded as spans. The result is identical to RunMix's.
func (s *Simulator) RunMixCtx(ctx context.Context, designName string, smt bool, programs []string) (study.MixResult, error) {
	d, err := config.DesignByName(designName, smt)
	if err != nil {
		return study.MixResult{}, err
	}
	mix := workload.Mix{ID: "user", Programs: programs}
	return s.st.EvaluateMixCtx(ctx, d, mix)
}

// RunParallel evaluates a multi-threaded application on the named design
// with the given software thread count.
func (s *Simulator) RunParallel(designName string, smt bool, appName string, threads int) (parallel.Result, error) {
	d, err := config.DesignByName(designName, smt)
	if err != nil {
		return parallel.Result{}, err
	}
	app, err := parallel.AppByName(appName)
	if err != nil {
		return parallel.Result{}, err
	}
	return parallel.Evaluate(app, d, threads, s.src)
}

// RunCycleAccurate co-simulates a multi-program workload on the named design
// with the detailed cycle engine for the given number of µops per thread,
// using round-robin thread-to-core placement. It is orders of magnitude
// slower than RunMix and intended for validation and detailed inspection.
func (s *Simulator) RunCycleAccurate(designName string, smt bool, programs []string, uops uint64) ([]cpu.ThreadStats, error) {
	d, err := config.DesignByName(designName, smt)
	if err != nil {
		return nil, err
	}
	chip, err := multicore.New(d, cpu.Ideal{})
	if err != nil {
		return nil, err
	}
	mix := workload.Mix{ID: "cycle", Programs: programs}
	readers, err := mix.Readers(0xC0FFEE)
	if err != nil {
		return nil, err
	}
	for i, r := range readers {
		if _, err := chip.AttachThread(i%d.NumCores(), r); err != nil {
			return nil, err
		}
	}
	stats := chip.Run(uops)
	chip.PublishMachStats(programs)
	return stats, nil
}

// figureFunc builds one table.
type figureFunc func(context.Context, *study.Study) (*study.Table, error)

// figureRegistry maps figure/table identifiers to their drivers.
var figureRegistry = map[string]figureFunc{
	"table1": func(context.Context, *study.Study) (*study.Table, error) { return study.Table1(), nil },
	"fig1":   func(ctx context.Context, st *study.Study) (*study.Table, error) { return st.Figure1(ctx) },
	"fig2":   func(context.Context, *study.Study) (*study.Table, error) { return study.Figure2(), nil },
	"fig3a": func(ctx context.Context, st *study.Study) (*study.Table, error) {
		return st.Figure3(ctx, study.Homogeneous)
	},
	"fig3b": func(ctx context.Context, st *study.Study) (*study.Table, error) {
		return st.Figure3(ctx, study.Heterogeneous)
	},
	"fig4a":  func(ctx context.Context, st *study.Study) (*study.Table, error) { return st.Figure4(ctx, "tonto") },
	"fig4b":  func(ctx context.Context, st *study.Study) (*study.Table, error) { return st.Figure4(ctx, "libquantum") },
	"fig5":   func(ctx context.Context, st *study.Study) (*study.Table, error) { return st.Figure5(ctx) },
	"fig6":   func(ctx context.Context, st *study.Study) (*study.Table, error) { return st.Figure6(ctx) },
	"fig7":   func(ctx context.Context, st *study.Study) (*study.Table, error) { return st.Figure7(ctx) },
	"fig8":   func(ctx context.Context, st *study.Study) (*study.Table, error) { return st.Figure8(ctx) },
	"fig9":   func(ctx context.Context, st *study.Study) (*study.Table, error) { return st.Figure9(ctx) },
	"fig10a": func(context.Context, *study.Study) (*study.Table, error) { return study.Figure10a(), nil },
	"fig10b": func(ctx context.Context, st *study.Study) (*study.Table, error) { return st.Figure10(ctx) },
	"fig11":  func(ctx context.Context, st *study.Study) (*study.Table, error) { return st.Figure11(ctx) },
	"fig12a": func(ctx context.Context, st *study.Study) (*study.Table, error) { return st.Figure12(ctx, "ROI") },
	"fig12b": func(ctx context.Context, st *study.Study) (*study.Table, error) { return st.Figure12(ctx, "whole") },
	"fig13a": func(ctx context.Context, st *study.Study) (*study.Table, error) {
		return st.Figure13(ctx, study.Homogeneous)
	},
	"fig13b": func(ctx context.Context, st *study.Study) (*study.Table, error) {
		return st.Figure13(ctx, study.Heterogeneous)
	},
	"fig14":  func(ctx context.Context, st *study.Study) (*study.Table, error) { return st.Figure14(ctx) },
	"fig15":  func(ctx context.Context, st *study.Study) (*study.Table, error) { return st.Figure15(ctx) },
	"fig16":  func(ctx context.Context, st *study.Study) (*study.Table, error) { return st.Figure16(ctx) },
	"fig17a": func(ctx context.Context, st *study.Study) (*study.Table, error) { return st.Figure17a(ctx) },
	"fig17b": func(ctx context.Context, st *study.Study) (*study.Table, error) { return st.Figure17b(ctx) },

	// Ablations of the modelling decisions (see DESIGN.md) and extensions
	// from the paper's discussion section.
	"abl-smteff":  func(ctx context.Context, st *study.Study) (*study.Table, error) { return st.AblationSMTEfficiency(ctx) },
	"abl-llc":     func(ctx context.Context, st *study.Study) (*study.Table, error) { return st.AblationLLCPolicy(ctx) },
	"abl-queue":   func(ctx context.Context, st *study.Study) (*study.Table, error) { return st.AblationQueueing(ctx) },
	"abl-visible": func(ctx context.Context, st *study.Study) (*study.Table, error) { return st.AblationWindowVisible(ctx) },
	"abl-sched":   func(ctx context.Context, st *study.Study) (*study.Table, error) { return st.AblationScheduler(ctx) },
	"ext-turbo":   func(ctx context.Context, st *study.Study) (*study.Table, error) { return st.ExtensionTurboBoost(ctx) },
	"ext-serial":  func(ctx context.Context, st *study.Study) (*study.Table, error) { return st.ExtensionSerialBoost(ctx) },
}

// FigureIDs lists every reproducible table/figure identifier, sorted.
func FigureIDs() []string {
	ids := make([]string, 0, len(figureRegistry))
	for id := range figureRegistry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Figure regenerates the identified table or figure. The context cancels
// the underlying simulation campaign: the experiment engine stops handing
// work to its pool when ctx is done. After Resume, a journaled table is
// returned without recomputation and a computed one is journaled.
func (s *Simulator) Figure(ctx context.Context, id string) (*study.Table, error) {
	f, ok := figureRegistry[id]
	if !ok {
		return nil, fmt.Errorf("core: unknown figure %q (known: %v)", id, FigureIDs())
	}
	t, j := s.journaledTable(id)
	if t != nil {
		return t, nil
	}
	t, err := f(ctx, s.st)
	if err != nil || j == nil {
		return t, err
	}
	if err := s.record(j, id, t); err != nil {
		return nil, err
	}
	return t, nil
}

// JobRun is the outcome of one design in a JobStream call.
type JobRun struct {
	// Design is the design's name.
	Design string
	// Result is the timeline simulation outcome.
	Result timeline.Result
}

// JobStream simulates a stream of arriving and departing jobs — the paper's
// motivating dynamic multiprogramming scenario — on each named design,
// fanning independent designs over the experiment engine's worker pool.
func (s *Simulator) JobStream(ctx context.Context, designNames []string, smt bool, jobs []timeline.Job) ([]JobRun, error) {
	designs := make([]config.Design, len(designNames))
	for i, name := range designNames {
		d, err := config.DesignByName(name, smt)
		if err != nil {
			return nil, err
		}
		designs[i] = d
	}
	results, err := s.st.RunJobs(ctx, designs, jobs)
	if err != nil {
		return nil, err
	}
	runs := make([]JobRun, len(designs))
	for i := range designs {
		runs[i] = JobRun{Design: designs[i].Name, Result: results[i]}
	}
	return runs, nil
}
