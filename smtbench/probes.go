package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"smtflex/internal/cache"
	"smtflex/internal/config"
	"smtflex/internal/contention"
	"smtflex/internal/cpu"
	"smtflex/internal/interval"
	"smtflex/internal/isa"
	"smtflex/internal/mem"
	"smtflex/internal/multicore"
	"smtflex/internal/parallel"
	"smtflex/internal/profiler"
	"smtflex/internal/sched"
	"smtflex/internal/study"
	"smtflex/internal/trace"
	"smtflex/internal/workload"
)

var coreTypes = []config.CoreType{config.Big, config.Medium, config.Small}

// profileKey is one profile the engine measures: a benchmark on a core type.
type profileKey struct {
	spec trace.Spec
	ct   config.CoreType
}

// allProfileKeys lists every profile the study can ask for.
func allProfileKeys() []profileKey {
	var keys []profileKey
	for _, spec := range workload.Benchmarks() {
		for _, ct := range coreTypes {
			keys = append(keys, profileKey{spec, ct})
		}
	}
	return keys
}

// profileStats is the profiler layer's record of one warm-up.
type profileStats struct {
	durMs     []float64
	wall      time.Duration
	profiles  int64
	coalesced int64
}

// warmProfiles measures every profile through Source.Profile with one
// worker per CPU, recording a span per call under parent.
func warmProfiles(src *profiler.Source, tr *tracer, parent int) (profileStats, error) {
	keys := allProfileKeys()
	before := src.CacheCounters()
	durs := make([]float64, len(keys))
	errs := make([]error, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(keys) {
					return
				}
				t0 := time.Now()
				_, errs[i] = src.Profile(keys[i].spec, keys[i].ct)
				t1 := time.Now()
				durs[i] = ms(t1.Sub(t0))
				tr.record("profiler.profile", parent, t0, t1)
			}
		}()
	}
	wg.Wait()
	ps := profileStats{durMs: durs, wall: time.Since(start)}
	for i, err := range errs {
		if err != nil {
			return ps, fmt.Errorf("profile %s on %s: %w", keys[i].spec.Name, keys[i].ct, err)
		}
	}
	after := src.CacheCounters()
	ps.profiles = after[0].Misses - before[0].Misses
	for i := range after {
		ps.coalesced += after[i].Coalesced - before[i].Coalesced
	}
	return ps, nil
}

func (p profileStats) report(o *outcome) {
	o.layers["profiler.profiles"] = metric{float64(p.profiles), "count"}
	o.layers["profiler.busy_s"] = metric{p.wall.Seconds(), "s"}
	o.layers["profiler.profile_ms_p50"] = metric{median(p.durMs), "ms"}
	o.layers["profiler.profile_ms_max"] = metric{maxOf(p.durMs), "ms"}
	o.layers["profiler.coalesced"] = metric{float64(p.coalesced), "count"}
}

// sinkU keeps probe results alive so the compiler cannot drop the calls.
var sinkU uint64

// probeLayers times direct calls into the engine's lower layers on the
// warm profile source and reports one figure per layer. Every probe's input
// comes from the seed.
func probeLayers(src *profiler.Source, seed int64, sz sizes, tr *tracer, parent int, o *outcome) error {
	specs := workload.Benchmarks()
	n := sz.probeUops

	// trace: Generator.Next on every benchmark spec.
	t0 := time.Now()
	for _, spec := range specs {
		g, err := trace.NewGenerator(spec, uint64(seed))
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			sinkU += g.Next().Addr
		}
	}
	t1 := time.Now()
	tr.record("trace.generate", parent, t0, t1)
	o.layers["trace.ns_per_uop"] = metric{float64(t1.Sub(t0)) / float64(n*len(specs)), "ns/uop"}

	// multicore/cpu: a one-thread chip built like a profiling run, per core
	// type, on every spec.
	chipUops := uint64(n / 10)
	t0 = time.Now()
	for _, ct := range coreTypes {
		for _, spec := range specs {
			chip, err := multicore.New(profilingDesign(config.CoreOfType(ct)), cpu.Ideal{})
			if err != nil {
				return err
			}
			g, err := trace.NewGenerator(spec, uint64(seed))
			if err != nil {
				return err
			}
			if _, err := chip.AttachThread(0, g); err != nil {
				return err
			}
			chip.Run(chipUops)
		}
	}
	t1 = time.Now()
	tr.record("multicore.run", parent, t0, t1)
	o.layers["multicore.ns_per_uop"] = metric{float64(t1.Sub(t0)) / float64(chipUops*uint64(len(specs)*len(coreTypes))), "ns/uop"}

	// cache: StackProfiler.Touch on each spec's data and code block streams.
	var touches, mallocs uint64
	var touchTime time.Duration
	for _, spec := range specs {
		data, code, err := blockStreams(spec, uint64(seed), n)
		if err != nil {
			return err
		}
		for _, stream := range [][]uint64{data, code} {
			p := cache.NewStackProfiler((128 << 20) / isa.MemBlockSize)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			for _, b := range stream {
				p.Touch(b)
			}
			t1 := time.Now()
			runtime.ReadMemStats(&m1)
			tr.record("cache.stack_touch", parent, t0, t1)
			touchTime += t1.Sub(t0)
			touches += uint64(len(stream))
			mallocs += m1.Mallocs - m0.Mallocs
		}
	}
	o.layers["cache.stack_ns_per_touch"] = metric{float64(touchTime) / float64(touches), "ns/touch"}
	o.layers["cache.stack_allocs_per_touch"] = metric{float64(mallocs) / float64(touches), "allocs/touch"}

	// interval: Profile.Evaluate on every warm profile, timed in batches so
	// the clock's cost does not swamp a sub-microsecond call.
	const batch = 200
	var evalNs []float64
	t0 = time.Now()
	for _, k := range allProfileKeys() {
		prof, err := src.Profile(k.spec, k.ct)
		if err != nil {
			return err
		}
		cc := config.CoreOfType(k.ct)
		w, sh := fullWindow(cc), aloneShares(cc)
		for rep := 0; rep < 5; rep++ {
			b0 := time.Now()
			for i := 0; i < batch; i++ {
				st := prof.Evaluate(cc, w, sh)
				sinkU += uint64(st.Base)
			}
			evalNs = append(evalNs, float64(time.Since(b0))/batch)
		}
	}
	tr.record("interval.evaluate", parent, t0, time.Now())
	o.layers["interval.evaluate_ns_p50"] = metric{median(evalNs), "ns"}

	// sched and contention: place seeded mixes on every design and thread
	// count, then solve each placement with one reused Solver.
	rng := rand.New(rand.NewSource(seed))
	names := workload.Names()
	solver := contention.NewSolver()
	var placeUs, solveUs []float64
	var iters, converged int
	t0 = time.Now()
	for _, d := range config.NineDesigns(true) {
		for threads := 1; threads <= study.MaxThreads; threads++ {
			mix := workload.Mix{ID: "probe", Programs: randomPrograms(rng, names, threads)}
			p0 := time.Now()
			placement, err := sched.Place(d, mix, src)
			p1 := time.Now()
			if err != nil {
				return err
			}
			res, err := solver.Solve(placement)
			p2 := time.Now()
			if err != nil {
				return err
			}
			tr.record("sched.place", parent, p0, p1)
			tr.record("contention.solve", parent, p1, p2)
			placeUs = append(placeUs, us(p1.Sub(p0)))
			solveUs = append(solveUs, us(p2.Sub(p1)))
			iters += res.Diag.Iterations
			if res.Diag.Converged {
				converged++
			}
		}
	}
	o.layers["sched.places"] = metric{float64(len(placeUs)), "count"}
	o.layers["sched.place_us_p50"] = metric{median(placeUs), "us"}
	o.layers["contention.solves"] = metric{float64(len(solveUs)), "count"}
	o.layers["contention.solve_us_p50"] = metric{median(solveUs), "us"}
	o.layers["contention.solve_us_p99"] = metric{quantile(solveUs, 0.99), "us"}
	o.layers["contention.iterations_mean"] = metric{float64(iters) / float64(len(solveUs)), "iterations"}
	o.layers["contention.converged_ratio"] = metric{float64(converged) / float64(len(solveUs)), "ratio"}

	// parallel: every multi-threaded application on every design at a few
	// software thread counts.
	var parMs []float64
	for _, app := range parallel.Apps() {
		for _, d := range config.NineDesigns(true) {
			for _, threads := range []int{1, 8, 24} {
				p0 := time.Now()
				res, err := parallel.Evaluate(app, d, threads, src)
				p1 := time.Now()
				if err != nil {
					return err
				}
				if !(res.TotalNs > 0) || math.IsInf(res.TotalNs, 0) {
					o.problem("parallel.Evaluate %s on %s at %d threads: total %g ns", app.Name, d.Name, threads, res.TotalNs)
				}
				tr.record("parallel.evaluate", parent, p0, p1)
				parMs = append(parMs, ms(p1.Sub(p0)))
			}
		}
	}
	o.layers["parallel.evaluations"] = metric{float64(len(parMs)), "count"}
	o.layers["parallel.evaluate_ms_p50"] = metric{median(parMs), "ms"}
	return nil
}

// profilingDesign is the single-core chip a profiling run simulates.
func profilingDesign(cc config.Core) config.Design {
	d := config.Design{Name: "probe", SMTEnabled: false, MemBandwidthGBps: 8}
	d.Cores = []config.Core{cc}
	llc := config.LLCConfig()
	d.LLC.SizeBytes = llc.SizeBytes
	d.LLC.Assoc = llc.Assoc
	d.LLC.LatencyCycles = llc.LatencyCycles
	return d
}

// blockStreams returns the data and code block-address streams of the first
// n µops of spec, as the profiler's curve pass sees them.
func blockStreams(spec trace.Spec, seed uint64, n int) (data, code []uint64, err error) {
	g, err := trace.NewGenerator(spec, seed)
	if err != nil {
		return nil, nil, err
	}
	var last uint64
	for i := 0; i < n; i++ {
		u := g.Next()
		if u.Class.IsMem() {
			data = append(data, cache.BlockAddr(u.Addr))
		}
		if blk := cache.BlockAddr(u.PC); blk != last {
			last = blk
			code = append(code, blk)
		}
	}
	return data, code, nil
}

func fullWindow(cc config.Core) int {
	if !cc.OutOfOrder {
		return 2 * cc.Width
	}
	return cc.ROBSize
}

// aloneShares are the capacity shares of a thread alone on core cc with the
// whole LLC and uncontended memory.
func aloneShares(cc config.Core) interval.Shares {
	mc := config.MemConfig(8)
	return interval.Shares{
		L1I:              float64(cc.L1I.SizeBytes),
		L1D:              float64(cc.L1D.SizeBytes),
		L2:               float64(cc.L2.SizeBytes),
		LLC:              float64(config.LLCConfig().SizeBytes),
		MemLatencyCycles: uncontended(mc),
	}
}

func uncontended(mc mem.Config) float64 {
	return float64(mc.AccessTimeCycles) + mc.BusCyclesPerBlock()
}

func randomPrograms(rng *rand.Rand, names []string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = names[rng.Intn(len(names))]
	}
	return out
}
