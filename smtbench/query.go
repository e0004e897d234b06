package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"smtflex/internal/study"
)

// queryPlan is query_mix's seeded schedule: about 80% /v1/place queries and
// 20% reads of sweeps warmed during set-up, due at a fixed rate.
type queryPlan struct {
	rate    float64
	cached  []sweepQuery
	ref     [][]byte // the set-up's response to each cached sweep
	places  []placeQuery
	queries []queryItem
}

// queryItem is one scheduled request: a place query, or a read of cached
// sweep number sweep.
type queryItem struct {
	place int // index into places, or -1
	sweep int // index into cached, or -1
}

func newQueryPlan(seed int64, rate float64, dur time.Duration, cachedSweeps int) *queryPlan {
	rng := rand.New(rand.NewSource(seed))
	p := &queryPlan{rate: rate}
	for _, j := range rng.Perm(len(combos))[:cachedSweeps] {
		c := combos[j]
		p.cached = append(p.cached, newSweepQuery(c.design, c.kind, c.smt, 0))
	}
	p.ref = make([][]byte, cachedSweeps)
	n := int(rate * dur.Seconds())
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.8 {
			p.places = append(p.places, newPlaceQuery(rng))
			p.queries = append(p.queries, queryItem{place: len(p.places) - 1, sweep: -1})
		} else {
			p.queries = append(p.queries, queryItem{place: -1, sweep: rng.Intn(cachedSweeps)})
		}
	}
	return p
}

// warm computes the cached sweeps on a fresh daemon and keeps its responses
// as the reference every later read must equal byte for byte.
func (p *queryPlan) warm(d *daemon) error {
	for i, q := range p.cached {
		code, body, err := d.do(context.Background(), http.MethodPost, "/v1/sweep", q.body)
		if err == nil {
			err = q.check(code, body)
		}
		if err != nil {
			return fmt.Errorf("warming sweep %d: %w", i, err)
		}
		if p.ref[i] != nil && !bytes.Equal(p.ref[i], body) {
			return fmt.Errorf("warming sweep %d: response differs from the previous set-up's", i)
		}
		p.ref[i] = body
	}
	return nil
}

func (p *queryPlan) request(i int) (string, []byte) {
	if q := p.queries[i]; q.place >= 0 {
		return "/v1/place", p.places[q.place].body
	}
	return "/v1/sweep", p.cached[p.queries[i].sweep].body
}

func (p *queryPlan) check(i, code int, body []byte) error {
	q := p.queries[i]
	if q.place >= 0 {
		return p.places[q.place].check(code, body)
	}
	if code != http.StatusOK || !bytes.Equal(body, p.ref[q.sweep]) {
		return fmt.Errorf("cached sweep %s/%s: status %d, body differs from the set-up's response", p.cached[q.sweep].req.Design, p.cached[q.sweep].req.Kind, code)
	}
	return nil
}

// timedCall is one request of an open-loop phase.
type timedCall struct {
	call
	due time.Time
}

// openLoop sends the plan's requests at their due times whether or not
// earlier ones have completed, over at most one connection per CPU. A
// request waiting for a free connection is the system's delay, so latency
// is timed from the due time; the generator's own lateness is returned.
func openLoop(ctx context.Context, d *daemon, p *queryPlan, tr *tracer, parent int) ([]timedCall, []float64) {
	calls := make([]timedCall, len(p.queries))
	late := make([]float64, len(p.queries))
	jobs := make(chan int, len(p.queries)) // sized to the number of sends
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				path, body := p.request(i)
				t0 := time.Now()
				code, resp, err := d.do(ctx, http.MethodPost, path, body)
				t1 := time.Now()
				tr.record("server.request", parent, t0, t1)
				calls[i].call = call{index: i, t0: t0, t1: t1, code: code, body: resp, err: err}
			}
		}()
	}
	start := time.Now()
	for i := range p.queries {
		due := start.Add(time.Duration(float64(i) / p.rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		late[i] = ms(time.Since(due))
		calls[i].due = due
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return calls, late
}

// queryPhase summarizes one open-loop phase.
type queryPhase struct {
	calls       []timedCall
	latMs       []float64 // from due time, successful requests
	placeMs     []float64
	sweepMs     []float64
	lateMs      []float64
	inSLO, shed int
	wall        time.Duration
}

func runQueryPhase(ctx context.Context, d *daemon, p *queryPlan, tr *tracer, parent int, o *outcome) queryPhase {
	start := time.Now()
	calls, late := openLoop(ctx, d, p, tr, parent)
	ph := queryPhase{calls: calls, lateMs: late}
	for _, c := range calls {
		o.attempted++
		if c.code == http.StatusServiceUnavailable {
			ph.shed++
		}
		err := c.err
		if err == nil {
			err = p.check(c.index, c.code, c.body)
		}
		if err != nil {
			o.fail("request %d: %v", c.index, err)
			continue
		}
		lat := c.t1.Sub(c.due)
		ph.latMs = append(ph.latMs, ms(lat))
		if p.queries[c.index].place >= 0 {
			ph.placeMs = append(ph.placeMs, ms(lat))
		} else {
			ph.sweepMs = append(ph.sweepMs, ms(lat))
		}
		if lat <= querySLO {
			ph.inSLO++
		}
		if end := c.t1.Sub(start); end > ph.wall {
			ph.wall = end
		}
	}
	return ph
}

// queryIdentity digests every response in schedule order and replays the
// plan's first place queries in-process for the exact solver counts.
func queryIdentity(d *daemon, cfg runCfg, p *queryPlan, calls []timedCall) (identity, error) {
	dg := newDigest()
	for _, c := range calls {
		if c.err == nil {
			dg.add(c.body)
		}
	}
	st := study.New(d.sim.Source())
	n := min(cfg.sz.identityPlaces, len(p.places))
	id := identity{SHA256: dg.sum(), Outputs: dg.n,
		Basis: fmt.Sprintf("every response in schedule order; counts from an in-process replay of the first %d place queries", n)}
	id.Profiles = d.sim.Source().CacheCounters()[0].Misses
	var converged int64
	for _, q := range p.places[:n] {
		res, err := st.EvaluateMix(q.design(), q.mix())
		if err != nil {
			return id, err
		}
		id.Solves++
		id.SolverIterations += int64(res.Diag.Iterations)
		if res.Diag.Converged {
			converged++
		}
		id.WorstResidual = math.Max(id.WorstResidual, res.Diag.Residual)
	}
	id.Evaluations = st.Evaluations()
	id.ConvergedRatio = ratio(float64(converged), float64(id.Solves))
	return id, nil
}

// runQueryMix is query_mix: an open loop of placement queries and cached
// sweep reads at a fixed rate against a daemon warmed during set-up.
func runQueryMix(ctx context.Context, cfg runCfg) (*outcome, error) {
	o := newOutcome()
	enableDaemonDefaults()
	ring := defaultRing
	if cfg.trace {
		ring = tracedRing
	}
	plan := newQueryPlan(cfg.seed, cfg.sz.queryRate, cfg.seconds, cfg.sz.cachedSweeps)
	d, ps, err := setupDaemons(ctx, cfg, o, ring, plan.warm)
	if err != nil {
		return nil, err
	}
	defer d.close()

	rss := startRSS()
	ph := runQueryPhase(ctx, d, plan, nil, -1, o)
	rss.report(o)
	if len(ph.latMs) == 0 {
		return nil, fmt.Errorf("no query completed")
	}
	if o.ident, err = queryIdentity(d, cfg, plan, ph.calls); err != nil {
		return nil, err
	}
	latep50, latep99 := median(ph.lateMs), quantile(ph.lateMs, 0.99)
	if gap := 1e3 / cfg.sz.queryRate; latep50 > gap {
		o.problem("load generator fell behind its schedule: median send %.3f ms late, more than the %.3f ms between arrivals", latep50, gap)
	}
	p50 := median(ph.latMs)
	o.e2e["latency_ms_p50"] = metric{p50, "ms"}
	o.e2e["throughput_per_s"] = metric{float64(len(ph.latMs)) / ph.wall.Seconds(), "1/s"}
	o.named["query_ms_p50"] = o.e2e["latency_ms_p50"]
	o.named["query_ms_p90"] = metric{quantile(ph.latMs, 0.90), "ms"}
	o.named["query_ms_p99"] = metric{quantile(ph.latMs, 0.99), "ms"}
	o.named["query_slo_ratio"] = metric{ratio(float64(ph.inSLO), float64(len(ph.calls))), "ratio"}
	o.named["place_ms_p50"] = metric{median(ph.placeMs), "ms"}
	o.named["cached_sweep_ms_p50"] = metric{median(ph.sweepMs), "ms"}
	o.named["queries"] = metric{float64(len(ph.calls)), "count"}
	o.named["late_ms_p50"] = metric{latep50, "ms"}
	o.named["late_ms_p99"] = metric{latep99, "ms"}
	o.layers["loadgen.late_ms_p99"] = metric{latep99, "ms"}
	o.layers["loadgen.slo_ratio"] = o.named["query_slo_ratio"]
	if !cfg.trace {
		return o, nil
	}

	// The traced phase replays the same schedule.
	tr := newTracer()
	root := tr.open("query_mix", -1)
	rt := runtimeNow()
	evals0 := d.sim.Study().Evaluations()
	since := time.Now()
	tp := runQueryPhase(ctx, d, plan, tr, root, o)
	tr.close(root)
	rt.report(o)
	o.layers["study.evaluations"] = metric{float64(d.sim.Study().Evaluations() - evals0), "count"}
	o.layers["tracing.overhead_pct"] = metric{100 * (median(tp.latMs) - p50) / p50, "%"}
	o.layers["tracing.coverage_pct"] = metric{tr.coverage(root), "%"}
	o.layers["server.shed_ratio"] = metric{ratio(float64(tp.shed), float64(len(tp.calls))), "ratio"}
	ps.report(o)
	if err := d.serverLayers(ctx, since, o, "/v1/place", "/v1/sweep"); err != nil {
		return nil, err
	}
	if err := d.studyLayers(ctx, o); err != nil {
		return nil, err
	}

	// Pair the traced phase's first place queries with in-process replays.
	replay := tr.open("replay", -1)
	var queries []placeQuery
	var httpMs []float64
	for _, c := range tp.calls {
		if q := plan.queries[c.index]; q.place >= 0 && len(queries) < cfg.sz.replayMax {
			queries = append(queries, plan.places[q.place])
			httpMs = append(httpMs, ms(c.t1.Sub(c.t0)))
		}
	}
	r0 := time.Now()
	inMs, err := replayPlaces(ctx, d.sim, queries, tr, replay)
	busy := time.Since(r0)
	tr.close(replay)
	if err != nil {
		return nil, err
	}
	o.layers["server.overhead_ms_p50"] = metric{pairedOverhead(httpMs, inMs), "ms"}
	o.layers["study.busy_s"] = metric{busy.Seconds(), "s"}
	o.layers["study.call_ms_p50"] = metric{median(inMs), "ms"}

	probes := tr.open("probes", -1)
	if err := probeLayers(d.sim.Source(), cfg.seed, cfg.sz, tr, probes, o); err != nil {
		return nil, err
	}
	tr.close(probes)
	return o, tr.write(traceFile(cfg, "query_mix"))
}
