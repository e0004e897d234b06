// Repository-level benchmark harness: one benchmark per table and figure of
// the paper. Each benchmark regenerates its figure through the library
// facade; the first iteration pays the full simulation campaign, later
// iterations hit the study caches (reported time therefore approaches the
// pure table-assembly cost — run with -benchtime=1x to time cold
// regeneration).
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFigure8 -benchtime=1x
//
// Additional engine microbenchmarks (trace generation, cycle engine,
// contention solver, stack profiler) quantify the simulator itself.
package smtflex

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"smtflex/internal/cache"
	"smtflex/internal/config"
	"smtflex/internal/contention"
	"smtflex/internal/core"
	"smtflex/internal/cpu"
	"smtflex/internal/interval"
	"smtflex/internal/multicore"
	"smtflex/internal/obs"
	"smtflex/internal/profiler"
	"smtflex/internal/sched"
	"smtflex/internal/server"
	"smtflex/internal/study"
	"smtflex/internal/trace"
	"smtflex/internal/workload"
)

var (
	benchOnce sync.Once
	benchSim  *core.Simulator
)

// simulator returns the shared Simulator: profiles and design sweeps are
// cached across all figure benchmarks, matching how the paper derives every
// figure from one simulation campaign.
func simulator() *core.Simulator {
	benchOnce.Do(func() { benchSim = core.NewSimulator(core.WithUopCount(100_000)) })
	return benchSim
}

// benchFigure regenerates one figure per iteration.
func benchFigure(b *testing.B, id string) {
	sim := simulator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := sim.Figure(context.Background(), id)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- One benchmark per table/figure of the paper ---

func BenchmarkTable1(b *testing.B)    { benchFigure(b, "table1") }
func BenchmarkFigure1(b *testing.B)   { benchFigure(b, "fig1") }
func BenchmarkFigure2(b *testing.B)   { benchFigure(b, "fig2") }
func BenchmarkFigure3a(b *testing.B)  { benchFigure(b, "fig3a") }
func BenchmarkFigure3b(b *testing.B)  { benchFigure(b, "fig3b") }
func BenchmarkFigure4a(b *testing.B)  { benchFigure(b, "fig4a") }
func BenchmarkFigure4b(b *testing.B)  { benchFigure(b, "fig4b") }
func BenchmarkFigure5(b *testing.B)   { benchFigure(b, "fig5") }
func BenchmarkFigure6(b *testing.B)   { benchFigure(b, "fig6") }
func BenchmarkFigure7(b *testing.B)   { benchFigure(b, "fig7") }
func BenchmarkFigure8(b *testing.B)   { benchFigure(b, "fig8") }
func BenchmarkFigure9(b *testing.B)   { benchFigure(b, "fig9") }
func BenchmarkFigure10a(b *testing.B) { benchFigure(b, "fig10a") }
func BenchmarkFigure10b(b *testing.B) { benchFigure(b, "fig10b") }
func BenchmarkFigure11(b *testing.B)  { benchFigure(b, "fig11") }
func BenchmarkFigure12a(b *testing.B) { benchFigure(b, "fig12a") }
func BenchmarkFigure12b(b *testing.B) { benchFigure(b, "fig12b") }
func BenchmarkFigure13a(b *testing.B) { benchFigure(b, "fig13a") }
func BenchmarkFigure13b(b *testing.B) { benchFigure(b, "fig13b") }
func BenchmarkFigure14(b *testing.B)  { benchFigure(b, "fig14") }
func BenchmarkFigure15(b *testing.B)  { benchFigure(b, "fig15") }
func BenchmarkFigure16(b *testing.B)  { benchFigure(b, "fig16") }
func BenchmarkFigure17a(b *testing.B) { benchFigure(b, "fig17a") }
func BenchmarkFigure17b(b *testing.B) { benchFigure(b, "fig17b") }

// --- Parallel engine benchmarks ---

var (
	sweepSrcOnce sync.Once
	sweepSrc     *profiler.Source
)

// sweepSource returns a shared, pre-warmed profile source so the sweep
// benchmarks time the experiment engine itself, not the one-time profiling.
func sweepSource() *profiler.Source {
	sweepSrcOnce.Do(func() {
		sweepSrc = profiler.NewSource(30_000)
		for _, name := range workload.Names() {
			spec, err := workload.ByName(name)
			if err != nil {
				panic(err)
			}
			for _, ct := range []config.CoreType{config.Big, config.Medium, config.Small} {
				if _, err := sweepSrc.Profile(spec, ct); err != nil {
					panic(err)
				}
			}
		}
	})
	return sweepSrc
}

// benchMultiDesignSweep sweeps four designs over both workload kinds from
// cold sweep caches, the hot path of every figure. Comparing the Serial and
// Parallel variants quantifies the worker-pool speedup; the tables produced
// are bit-for-bit identical (see TestParallelMatchesSerial).
func benchMultiDesignSweep(b *testing.B, parallelism int) {
	src := sweepSource()
	designs := config.NineDesigns(true)[:4]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := study.New(src)
		st.MixesPerCount = 4
		st.Parallelism = parallelism
		for _, d := range designs {
			for _, k := range []study.Kind{study.Homogeneous, study.Heterogeneous} {
				if _, err := st.SweepDesign(context.Background(), d, k); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkMultiDesignSweepSerial(b *testing.B)   { benchMultiDesignSweep(b, 1) }
func BenchmarkMultiDesignSweepParallel(b *testing.B) { benchMultiDesignSweep(b, 0) }

// --- Server benchmarks ---

// benchServerSweep measures one /v1/sweep round-trip over HTTP against a
// warm engine — the steady-state cost of serving a cached sweep: routing,
// admission, cache lookup and JSON encoding. traceBuffer selects the
// server's tracing mode (0 = default-on, negative = disabled); the tracing
// gate is process-global, so the disabled variant forces it off in case an
// earlier benchmark's server enabled it.
func benchServerSweep(b *testing.B, traceBuffer int) {
	if traceBuffer < 0 {
		obs.Disable()
	}
	srv, err := server.New(server.Config{
		Sim:         simulator(),
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
		TraceBuffer: traceBuffer,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := []byte(`{"design":"4B","kind":"homogeneous"}`)
	post := func() error {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	// Warm the sweep cache outside the timed region.
	if err := post(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := post(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServerSweep(b *testing.B)        { benchServerSweep(b, 0) }
func BenchmarkServerSweepNoTrace(b *testing.B) { benchServerSweep(b, -1) }

// --- Engine microbenchmarks ---

// BenchmarkTraceGeneration measures synthetic µop stream throughput.
func BenchmarkTraceGeneration(b *testing.B) {
	spec, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	g, err := trace.NewGenerator(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// BenchmarkCycleEngine measures detailed-simulation throughput: µops per
// second of a 4-thread workload on the 4B chip.
func BenchmarkCycleEngine(b *testing.B) {
	d, err := config.DesignByName("4B", true)
	if err != nil {
		b.Fatal(err)
	}
	chip, err := multicore.New(d, cpu.Ideal{})
	if err != nil {
		b.Fatal(err)
	}
	mix := workload.Mix{ID: "bench", Programs: []string{"tonto", "mcf", "gcc", "hmmer"}}
	readers, err := mix.Readers(1)
	if err != nil {
		b.Fatal(err)
	}
	for i, r := range readers {
		if _, err := chip.AttachThread(i, r); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	chip.Run(uint64(b.N))
}

// BenchmarkContentionSolve measures the interval engine's fixed-point solve
// for a fully loaded 24-thread 4B chip.
func BenchmarkContentionSolve(b *testing.B) {
	src := profiler.NewSource(60_000)
	d, err := config.DesignByName("4B", true)
	if err != nil {
		b.Fatal(err)
	}
	progs := make([]string, 24)
	names := workload.Names()
	for i := range progs {
		progs[i] = names[i%len(names)]
	}
	placement, err := sched.Place(d, workload.Mix{ID: "bench", Programs: progs}, src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := contention.Solve(placement); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContentionSolveReused measures the same 24-thread solve through a
// reused Solver — the hot path of studies and refinement. The allocs/op here
// is the headline of the regression gate: steady-state solves must report 0.
func BenchmarkContentionSolveReused(b *testing.B) {
	src := profiler.NewSource(60_000)
	d, err := config.DesignByName("4B", true)
	if err != nil {
		b.Fatal(err)
	}
	progs := make([]string, 24)
	names := workload.Names()
	for i := range progs {
		progs[i] = names[i%len(names)]
	}
	placement, err := sched.Place(d, workload.Mix{ID: "bench", Programs: progs}, src)
	if err != nil {
		b.Fatal(err)
	}
	s := contention.NewSolver()
	if _, err := s.Solve(placement); err != nil { // warm the scratch
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(placement); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerPlace measures offline schedule construction.
func BenchmarkSchedulerPlace(b *testing.B) {
	src := profiler.NewSource(60_000)
	d, err := config.DesignByName("3B5s", true)
	if err != nil {
		b.Fatal(err)
	}
	mix := workload.HeterogeneousMixes(16, 1, 42)[0]
	// Warm the profile cache outside the timed region.
	if _, err := sched.Place(d, mix, src); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Place(d, mix, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStackProfiler measures reuse-distance profiling throughput.
func BenchmarkStackProfiler(b *testing.B) {
	p := cache.NewStackProfiler(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Touch(uint64(i % 100000))
	}
}

// BenchmarkIntervalEvaluate measures one CPI-stack evaluation.
func BenchmarkIntervalEvaluate(b *testing.B) {
	src := profiler.NewSource(60_000)
	spec, err := workload.ByName("soplex")
	if err != nil {
		b.Fatal(err)
	}
	p, err := src.Profile(spec, config.Big)
	if err != nil {
		b.Fatal(err)
	}
	cc := config.BigCore()
	sh := interval.Shares{L1I: 32 << 10, L1D: 16 << 10, L2: 128 << 10, LLC: 2 << 20, MemLatencyCycles: 200}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := p.Evaluate(cc, 64, sh)
		if st.Total() <= 0 {
			b.Fatal("bad stack")
		}
	}
}

// BenchmarkProfileMeasurement measures the one-time cost of characterizing
// one benchmark on one core type (cycle-engine idealization runs + curves).
func BenchmarkProfileMeasurement(b *testing.B) {
	spec, err := workload.ByName("bzip2")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		src := profiler.NewSource(60_000) // fresh cache every iteration
		p, err := src.Profile(spec, config.Medium)
		if err != nil {
			b.Fatal(err)
		}
		if p.DataAPKU <= 0 {
			b.Fatal("bad profile")
		}
	}
}
