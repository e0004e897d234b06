package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"time"

	"smtflex/internal/config"
	"smtflex/internal/core"
	"smtflex/internal/obs"
	"smtflex/internal/perfdiff"
	"smtflex/internal/profiler"
	"smtflex/internal/sched"
	"smtflex/internal/study"
)

// campaignSim is a cold simulator with the engine histograms installed.
type campaignSim struct {
	sim                *core.Simulator
	solverIters, queue *obs.Histogram
}

func newCampaignSim(cfg runCfg) campaignSim {
	cs := campaignSim{
		sim: core.NewSimulator(
			core.WithUopCount(cfg.sz.campaignUops),
			core.WithMixesPerCount(cfg.sz.campaignMixes),
			core.WithSeed(cfg.seed),
			core.WithParallelism(workers),
		),
		solverIters: obs.NewHistogram(perfdiff.SolverIterBuckets),
		queue:       obs.NewHistogram(perfdiff.QueueSecondsBuckets),
	}
	cs.sim.Study().SetEngineHistograms(cs.solverIters, cs.queue)
	return cs
}

// campaignSetup builds the cold simulator, materializes the seed's mix
// grids and warms the process up by profiling every benchmark on every core
// type at a small, fixed length on a throw-away source.
func campaignSetup(cfg runCfg) (campaignSim, error) {
	cs := newCampaignSim(cfg)
	for _, k := range []study.Kind{study.Homogeneous, study.Heterogeneous} {
		if _, _, err := cs.sim.Study().SweepMixes(k); err != nil {
			return cs, err
		}
	}
	_, err := warmProfiles(profiler.NewSource(cfg.sz.warmUops), nil, -1)
	return cs, err
}

// campaignPass regenerates every figure id once, recording a span per
// figure under parent. It returns the tables by id and each figure's time.
func campaignPass(ctx context.Context, sim *core.Simulator, tr *tracer, parent int) (map[string]*study.Table, []time.Time, []time.Time, error) {
	ids := core.FigureIDs()
	tables := make(map[string]*study.Table, len(ids))
	starts := make([]time.Time, 0, len(ids))
	ends := make([]time.Time, 0, len(ids))
	for _, id := range ids {
		t0 := time.Now()
		tab, err := sim.Figure(ctx, id)
		t1 := time.Now()
		if err != nil {
			return tables, starts, ends, fmt.Errorf("figure %s: %w", id, err)
		}
		tr.record("study.figure", parent, t0, t1)
		tables[id] = tab
		starts = append(starts, t0)
		ends = append(ends, t1)
	}
	return tables, starts, ends, nil
}

// checkCampaign verifies that every figure id is present with a non-empty
// table whose cells are all finite.
func checkCampaign(tables map[string]*study.Table, o *outcome) {
	for _, id := range core.FigureIDs() {
		o.attempted++
		tab := tables[id]
		switch {
		case tab == nil:
			o.fail("figure %s missing", id)
		case len(tab.Rows) == 0 || len(tab.Cols) == 0 || len(tab.Cells) != len(tab.Rows):
			o.fail("figure %s: empty or ragged table (%d rows, %d cols, %d cell rows)", id, len(tab.Rows), len(tab.Cols), len(tab.Cells))
		default:
			for r, row := range tab.Cells {
				if len(row) != len(tab.Cols) {
					o.fail("figure %s: row %d has %d cells for %d columns", id, r, len(row), len(tab.Cols))
					break
				}
				if c := firstNonFinite(row); c >= 0 {
					o.fail("figure %s: cell (%s, %s) is %g", id, tab.Rows[r], tab.Cols[c], row[c])
					break
				}
			}
		}
	}
}

func firstNonFinite(xs []float64) int {
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return i
		}
	}
	return -1
}

func finitePositive(x float64) bool { return x > 0 && !math.IsInf(x, 0) }

// campaignIdentity digests the tables and reads the exact counts of the
// campaign that produced them. Convergence is read from the default-model
// design sweeps the campaign cached, after the counts are taken.
func campaignIdentity(ctx context.Context, cs campaignSim, tables map[string]*study.Table) identity {
	dg := newDigest()
	for _, id := range core.FigureIDs() {
		tab := tables[id]
		if tab == nil {
			continue
		}
		dg.add([]byte(fmt.Sprintf("%s\x00%s\x00%q\x00%q", id, tab.Title, tab.Rows, tab.Cols)))
		for _, row := range tab.Cells {
			b := make([]byte, 0, 8*len(row))
			for _, v := range row {
				b = fmt.Appendf(b, "%x,", math.Float64bits(v))
			}
			dg.add(b)
		}
	}
	st := cs.sim.Study()
	id := identity{
		SHA256:           dg.sum(),
		Outputs:          len(tables),
		Profiles:         cs.sim.Source().CacheCounters()[0].Misses,
		Evaluations:      st.Evaluations(),
		SolverIterations: int64(cs.solverIters.Snapshot().Sum),
		Solves:           cs.solverIters.Snapshot().Count,
		Basis:            "tables of the first campaign; convergence over its 36 default-model design sweeps (per sweep)",
	}
	var sweeps, converged int
	for _, smt := range []bool{true, false} {
		for _, d := range config.NineDesigns(smt) {
			for _, k := range []study.Kind{study.Homogeneous, study.Heterogeneous} {
				sw, err := st.SweepDesign(ctx, d, k)
				if err != nil {
					continue
				}
				sweeps++
				if sw.SolverConverged {
					converged++
				}
				id.WorstResidual = math.Max(id.WorstResidual, sw.SolverResidual)
			}
		}
	}
	id.ConvergedRatio = ratio(float64(converged), float64(sweeps))
	return id
}

// runCampaign is campaign_cold: fresh simulators regenerate every figure id
// at reduced fidelity, back to back, until the measured time is used. Only
// the first campaign of a run starts from the set-up's simulator; each later
// one gets its own, so every campaign profiles from cold.
func runCampaign(ctx context.Context, cfg runCfg) (*outcome, error) {
	o := newOutcome()
	var setups []float64
	var cs campaignSim
	for i := 0; i < cfg.sz.setups; i++ {
		t0 := time.Now()
		var err error
		if cs, err = campaignSetup(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fmt.Fprintf(cfg.log, "   set-up times (s): %v\n", setups)

	var walls []float64
	rss := startRSS()
	start := time.Now()
	for {
		t0 := time.Now()
		tables, _, _, err := campaignPass(ctx, cs.sim, nil, -1)
		wall := time.Since(t0)
		if err != nil {
			return nil, err
		}
		checkCampaign(tables, o)
		if len(walls) == 0 {
			o.ident = campaignIdentity(ctx, cs, tables)
		}
		walls = append(walls, wall.Seconds())
		fmt.Fprintf(cfg.log, "   campaign %d: %.3f s\n", len(walls), wall.Seconds())
		if cfg.trace || time.Since(start)+wall > cfg.seconds {
			break
		}
		cs = newCampaignSim(cfg)
	}
	rss.report(o)
	total := 0.0
	for _, w := range walls {
		total += w
	}
	o.e2e["setup_s"] = metric{median(setups), "s"}
	o.e2e["latency_ms_p50"] = metric{1e3 * median(walls), "ms"}
	o.e2e["throughput_per_s"] = metric{float64(len(walls)) / total, "1/s"}
	o.named["campaign_s"] = metric{median(walls), "s"}
	o.named["campaigns"] = metric{float64(len(walls)), "count"}

	if cfg.trace {
		if err := traceCampaign(ctx, cfg, walls[0], o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// traceCampaign is the traced campaign: on a fresh simulator it first
// measures every profile through Source.Profile, then regenerates every
// figure with warm profiles, with a span around each call. Then it probes
// the lower layers and the server on the warm engine.
func traceCampaign(ctx context.Context, cfg runCfg, untraced float64, o *outcome) error {
	cs := newCampaignSim(cfg)
	tr := newTracer()
	root := tr.open("campaign", -1)
	rt := runtimeNow()
	ps, err := warmProfiles(cs.sim.Source(), tr, root)
	if err != nil {
		return err
	}
	st := cs.sim.Study()
	evals0 := st.Evaluations()
	profiles0 := cs.sim.Source().CacheCounters()[0].Misses
	t0 := time.Now()
	tables, starts, ends, err := campaignPass(ctx, cs.sim, tr, root)
	figures := time.Since(t0)
	if err != nil {
		return err
	}
	tr.close(root)
	rt.report(o)
	checkCampaign(tables, o)
	if extra := cs.sim.Source().CacheCounters()[0].Misses - profiles0; extra != 0 {
		o.problem("figures measured %d profiles beyond the warm set", extra)
	}
	traced := ps.wall + figures
	var figMs, gapMs []float64
	for i := range starts {
		figMs = append(figMs, ms(ends[i].Sub(starts[i])))
		if i > 0 {
			gapMs = append(gapMs, ms(starts[i].Sub(ends[i-1])))
		}
	}
	cov := tr.coverage(root)
	if cov < minCoverage {
		o.problem("layer spans cover %.2f%% of the traced campaign, below %.0f%%", cov, minCoverage)
	}
	ps.report(o)
	o.layers["study.busy_s"] = metric{figures.Seconds(), "s"}
	o.layers["study.call_ms_p50"] = metric{median(figMs), "ms"}
	o.layers["study.evaluations"] = metric{float64(st.Evaluations() - evals0), "count"}
	cst := st.CacheStats()
	o.layers["study.sweep_hit_ratio"] = metric{ratio(float64(cst.SweepHits), float64(cst.SweepHits+cst.SweepMisses)), "ratio"}
	q := cs.queue.Snapshot()
	o.layers["study.pool_queue_ms_p50"] = metric{1e3 * q.Quantile(0.5), "ms"}
	o.layers["study.pool_queue_ms_p99"] = metric{1e3 * q.Quantile(0.99), "ms"}
	o.layers["loadgen.late_ms_p99"] = metric{quantile(gapMs, 0.99), "ms"}
	o.layers["tracing.overhead_pct"] = metric{100 * (traced.Seconds() - untraced) / untraced, "%"}
	o.layers["tracing.coverage_pct"] = metric{cov, "%"}
	fmt.Fprintf(cfg.log, "   traced campaign: profiles %.3f s + figures %.3f s (untraced %.3f s), coverage %.2f%%\n",
		ps.wall.Seconds(), figures.Seconds(), untraced, cov)

	probes := tr.open("probes", -1)
	if err := probeLayers(cs.sim.Source(), cfg.seed, cfg.sz, tr, probes, o); err != nil {
		return err
	}
	if err := placeProbe(ctx, cfg, cs.sim, tr, probes, o); err != nil {
		return err
	}
	tr.close(probes)
	return tr.write(traceFile(cfg, "campaign_cold"))
}

func traceFile(cfg runCfg, name string) string {
	return fmt.Sprintf("%s/%s-seed%d-trace.json", cfg.outDir, name, cfg.seed)
}

// placeProbe serves the warm engine over HTTP and sends a closed loop of
// seeded /v1/place queries, then replays each one in-process to split the
// HTTP latency into engine time and server overhead.
func placeProbe(ctx context.Context, cfg runCfg, sim *core.Simulator, tr *tracer, parent int, o *outcome) error {
	d, err := startDaemon(sim, tracedRing)
	if err != nil {
		return err
	}
	defer d.close()
	rng := rand.New(rand.NewSource(cfg.seed))
	n := cfg.sz.replayMax
	queries := make([]placeQuery, n)
	httpMs := make([]float64, n)
	since := time.Now()
	var shed, within int
	for i := range queries {
		queries[i] = newPlaceQuery(rng)
		t0 := time.Now()
		code, body, err := d.do(ctx, http.MethodPost, "/v1/place", queries[i].body)
		t1 := time.Now()
		tr.record("server.place", parent, t0, t1)
		httpMs[i] = ms(t1.Sub(t0))
		if code == http.StatusServiceUnavailable {
			shed++
		}
		if err == nil {
			err = queries[i].check(code, body)
		}
		o.attempted++
		if err != nil {
			o.fail("probe: %v", err)
		} else if t1.Sub(t0) <= querySLO {
			within++
		}
	}
	inMs, err := replayPlaces(ctx, sim, queries, tr, parent)
	if err != nil {
		return err
	}
	o.layers["server.overhead_ms_p50"] = metric{pairedOverhead(httpMs, inMs), "ms"}
	o.layers["server.shed_ratio"] = metric{ratio(float64(shed), float64(n)), "ratio"}
	o.layers["loadgen.slo_ratio"] = metric{ratio(float64(within), float64(n)), "ratio"}
	return d.serverLayers(ctx, since, o, "/v1/place")
}

// replayPlaces runs each query's engine path in-process — the scheduler's
// placement and the study's evaluation, as the /v1/place handler does — and
// returns each one's time in ms.
func replayPlaces(ctx context.Context, sim *core.Simulator, queries []placeQuery, tr *tracer, parent int) ([]float64, error) {
	out := make([]float64, len(queries))
	for i, q := range queries {
		d, mix := q.design(), q.mix()
		t0 := time.Now()
		if _, err := sched.PlaceCtx(ctx, d, mix, sim.Source()); err != nil {
			return nil, err
		}
		if _, err := sim.Study().EvaluateMixCtx(ctx, d, mix); err != nil {
			return nil, err
		}
		t1 := time.Now()
		tr.record("study.evaluate", parent, t0, t1)
		out[i] = ms(t1.Sub(t0))
	}
	return out, nil
}

// pairedOverhead is the median, over requests, of HTTP latency minus the
// in-process latency of the same request.
func pairedOverhead(httpMs, inMs []float64) float64 {
	n := min(len(httpMs), len(inMs))
	diffs := make([]float64, n)
	for i := 0; i < n; i++ {
		diffs[i] = httpMs[i] - inMs[i]
	}
	return median(diffs)
}
