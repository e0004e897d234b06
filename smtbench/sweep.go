package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"smtflex/internal/config"
	"smtflex/internal/server"
	"smtflex/internal/study"
)

// sweepSLO is the latency limit behind sweep_fresh's loadgen.slo_ratio.
const sweepSLO = 500 * time.Millisecond

// replaySweeps bounds the in-process sweep replay of a traced run.
const replaySweeps = 40

// sweepQuery is one /v1/sweep request.
type sweepQuery struct {
	req    server.SweepRequest
	body   []byte
	design config.Design
	kind   study.Kind
}

func newSweepQuery(design string, kind study.Kind, smt bool, bw float64) sweepQuery {
	req := server.SweepRequest{Design: design, SMT: &smt, Kind: kind.String(), BandwidthGBps: bw}
	body, _ := json.Marshal(req) // plain fields always marshal
	d, _ := config.DesignByName(design, smt)
	if bw > 0 {
		d = d.WithBandwidth(bw)
	}
	return sweepQuery{req: req, body: body, design: d, kind: kind}
}

// check validates a sweep response: the requested design and kind, and 24
// finite, positive STP, ANTT and Watts entries.
func (q sweepQuery) check(code int, body []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("sweep %s/%s: status %d: %.200s", q.req.Design, q.req.Kind, code, body)
	}
	var resp server.SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("sweep %s/%s: %v", q.req.Design, q.req.Kind, err)
	}
	if resp.Design != q.req.Design || resp.Kind != q.req.Kind {
		return fmt.Errorf("sweep %s/%s answered as %s/%s", q.req.Design, q.req.Kind, resp.Design, resp.Kind)
	}
	for name, xs := range map[string][]float64{"stp": resp.STP, "antt": resp.ANTT, "watts": resp.Watts} {
		if len(xs) != study.MaxThreads {
			return fmt.Errorf("sweep %s/%s: %d %s entries, want %d", q.req.Design, q.req.Kind, len(xs), name, study.MaxThreads)
		}
		for n, x := range xs {
			if !finitePositive(x) {
				return fmt.Errorf("sweep %s/%s: %s at %d threads is %g", q.req.Design, q.req.Kind, name, n+1, x)
			}
		}
	}
	return nil
}

// sweepStream is sweep_fresh's request sequence: seeded permutations of the
// 36 (design, kind, SMT) combinations, each request with a bandwidth no
// other request has, so every sweep misses the sweep cache. Request i is the
// same for a seed whichever client sends it.
type sweepStream struct {
	mu      sync.Mutex
	rng     *rand.Rand
	seen    map[float64]bool
	queries []sweepQuery
}

func newSweepStream(seed int64) *sweepStream {
	return &sweepStream{rng: rand.New(rand.NewSource(seed)), seen: map[float64]bool{}}
}

type combo struct {
	design string
	kind   study.Kind
	smt    bool
}

var combos = func() []combo {
	var cs []combo
	for _, d := range designNames {
		for _, k := range []study.Kind{study.Homogeneous, study.Heterogeneous} {
			for _, smt := range []bool{true, false} {
				cs = append(cs, combo{d, k, smt})
			}
		}
	}
	return cs
}()

func (s *sweepStream) get(i int) sweepQuery {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queries) <= i {
		for _, j := range s.rng.Perm(len(combos)) {
			bw := 0.0
			for bw == 0 || s.seen[bw] {
				bw = 7.5 + s.rng.Float64()
			}
			s.seen[bw] = true
			c := combos[j]
			s.queries = append(s.queries, newSweepQuery(c.design, c.kind, c.smt, bw))
		}
	}
	return s.queries[i]
}

// call is one completed request of a load phase.
type call struct {
	index  int
	t0, t1 time.Time
	code   int
	body   []byte
	err    error
}

// closedLoop runs workers clients, each sending its next request only after
// the previous one completed, from request index first until dur has
// passed. It returns the completed calls and each client's gap between a
// response and its next request.
func closedLoop(ctx context.Context, d *daemon, first int, dur time.Duration, query func(int) []byte, path string, tr *tracer, parent int) ([]call, []float64) {
	var next atomic.Int64
	next.Store(int64(first))
	deadline := time.Now().Add(dur)
	var mu sync.Mutex
	var calls []call
	var gaps []float64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := time.Now()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				body := query(i)
				t0 := time.Now()
				code, resp, err := d.do(ctx, http.MethodPost, path, body)
				t1 := time.Now()
				tr.record("server.request", parent, t0, t1)
				mu.Lock()
				calls = append(calls, call{index: i, t0: t0, t1: t1, code: code, body: resp, err: err})
				gaps = append(gaps, ms(t0.Sub(prev)))
				mu.Unlock()
				prev = t1
			}
		}()
	}
	wg.Wait()
	return calls, gaps
}

// sweepPhase is one closed-loop load phase of sweep_fresh.
type sweepPhase struct {
	calls  []call
	gapsMs []float64
	latMs  []float64 // completed without error, by completion order
	wall   time.Duration
	shed   int
	inSLO  int
}

func runSweepPhase(ctx context.Context, d *daemon, stream *sweepStream, first int, dur time.Duration, tr *tracer, parent int, o *outcome) sweepPhase {
	start := time.Now()
	calls, gaps := closedLoop(ctx, d, first, dur, func(i int) []byte { return stream.get(i).body }, "/v1/sweep", tr, parent)
	ph := sweepPhase{calls: calls, gapsMs: gaps, wall: time.Since(start)}
	for _, c := range calls {
		o.attempted++
		err := c.err
		if err == nil {
			err = stream.get(c.index).check(c.code, c.body)
		}
		if c.code == http.StatusServiceUnavailable {
			ph.shed++
		}
		if err != nil {
			o.fail("request %d: %v", c.index, err)
			continue
		}
		lat := c.t1.Sub(c.t0)
		ph.latMs = append(ph.latMs, ms(lat))
		if lat <= sweepSLO {
			ph.inSLO++
		}
	}
	return ph
}

// sweepIdentity digests the bodies of the stream's first requests and
// replays those sweeps cell by cell in-process, on a fresh study sharing the
// daemon's warm profiles, for the exact evaluation and solver counts.
func sweepIdentity(d *daemon, cfg runCfg, stream *sweepStream, calls []call) (identity, error) {
	k := cfg.sz.identitySweeps
	bodies := make([][]byte, k)
	for _, c := range calls {
		if c.index < k && c.err == nil {
			bodies[c.index] = c.body
		}
	}
	dg := newDigest()
	for _, b := range bodies {
		if b != nil {
			dg.add(b)
		}
	}
	st := study.New(d.sim.Source())
	st.MixesPerCount = cfg.sz.daemonMixes
	id := identity{SHA256: dg.sum(), Outputs: dg.n,
		Basis: fmt.Sprintf("responses to requests 0..%d; counts from an in-process cell-by-cell replay of the same sweeps", k-1)}
	id.Profiles = d.sim.Source().CacheCounters()[0].Misses
	var converged int64
	for i := 0; i < k; i++ {
		q := stream.get(i)
		mixes, nMixes, err := st.SweepMixes(q.kind)
		if err != nil {
			return id, err
		}
		for n := 1; n <= study.MaxThreads; n++ {
			for mi := 0; mi < nMixes; mi++ {
				res, err := st.EvaluateMix(q.design, mixes[n][mi])
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
		}
	}
	id.Evaluations = st.Evaluations()
	id.ConvergedRatio = ratio(float64(converged), float64(id.Solves))
	return id, nil
}

// runSweepFresh is sweep_fresh: a closed loop of one client per CPU against
// a daemon with warm profiles, every request a sweep the cache has not seen.
func runSweepFresh(ctx context.Context, cfg runCfg) (*outcome, error) {
	o := newOutcome()
	enableDaemonDefaults()
	ring := defaultRing
	if cfg.trace {
		ring = tracedRing
	}
	d, ps, err := setupDaemons(ctx, cfg, o, ring, nil)
	if err != nil {
		return nil, err
	}
	defer d.close()
	stream := newSweepStream(cfg.seed)

	rss := startRSS()
	ph := runSweepPhase(ctx, d, stream, 0, cfg.seconds, nil, -1, o)
	rss.report(o)
	if len(ph.latMs) == 0 {
		return nil, fmt.Errorf("no sweep completed")
	}
	if o.ident, err = sweepIdentity(d, cfg, stream, ph.calls); err != nil {
		return nil, err
	}
	p50 := median(ph.latMs)
	o.e2e["latency_ms_p50"] = metric{p50, "ms"}
	o.e2e["throughput_per_s"] = metric{float64(len(ph.latMs)) / ph.wall.Seconds(), "1/s"}
	o.named["sweeps_per_s"] = o.e2e["throughput_per_s"]
	o.named["sweep_ms_p50"] = o.e2e["latency_ms_p50"]
	o.named["sweep_ms_p90"] = metric{quantile(ph.latMs, 0.90), "ms"}
	o.named["sweeps"] = metric{float64(len(ph.latMs)), "count"}
	o.layers["loadgen.late_ms_p99"] = metric{quantile(ph.gapsMs, 0.99), "ms"}
	o.layers["loadgen.slo_ratio"] = metric{ratio(float64(ph.inSLO), float64(len(ph.calls))), "ratio"}
	if !cfg.trace {
		return o, nil
	}

	// The traced phase continues the stream, so its sweeps are fresh too.
	tr := newTracer()
	root := tr.open("sweep_fresh", -1)
	rt := runtimeNow()
	evals0 := d.sim.Study().Evaluations()
	since := time.Now()
	first := 0
	for _, c := range ph.calls {
		first = max(first, c.index+1)
	}
	tp := runSweepPhase(ctx, d, stream, first, cfg.seconds, tr, root, o)
	tr.close(root)
	rt.report(o)
	o.layers["study.evaluations"] = metric{float64(d.sim.Study().Evaluations() - evals0), "count"}
	o.layers["tracing.overhead_pct"] = metric{100 * (median(tp.latMs) - p50) / p50, "%"}
	o.layers["tracing.coverage_pct"] = metric{tr.coverage(root), "%"}
	o.layers["server.shed_ratio"] = metric{ratio(float64(tp.shed), float64(len(tp.calls))), "ratio"}
	ps.report(o)
	if err := d.serverLayers(ctx, since, o, "/v1/sweep"); err != nil {
		return nil, err
	}
	if err := d.studyLayers(ctx, o); err != nil {
		return nil, err
	}

	// Replay the traced phase's first sweeps in-process with the same
	// concurrency, on a fresh study sharing the warm profiles.
	replay := tr.open("replay", -1)
	st := study.New(d.sim.Source())
	st.MixesPerCount = cfg.sz.daemonMixes
	st.Parallelism = workers
	n := min(replaySweeps, len(tp.calls))
	byIndex := make(map[int]call, len(tp.calls))
	for _, c := range tp.calls {
		byIndex[c.index] = c
	}
	inMs := make([]float64, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	var replayErr error
	var errOnce sync.Once
	r0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= n {
					return
				}
				q := stream.get(first + j)
				t0 := time.Now()
				_, err := st.SweepDesign(ctx, q.design, q.kind)
				t1 := time.Now()
				if err != nil {
					errOnce.Do(func() { replayErr = err })
					return
				}
				tr.record("study.sweep", replay, t0, t1)
				inMs[j] = ms(t1.Sub(t0))
			}
		}()
	}
	wg.Wait()
	busy := time.Since(r0)
	tr.close(replay)
	if replayErr != nil {
		return nil, replayErr
	}
	httpMs := make([]float64, n)
	for j := range httpMs {
		c := byIndex[first+j]
		httpMs[j] = ms(c.t1.Sub(c.t0))
	}
	o.layers["server.overhead_ms_p50"] = metric{pairedOverhead(httpMs, inMs), "ms"}
	o.layers["study.busy_s"] = metric{busy.Seconds(), "s"}
	o.layers["study.call_ms_p50"] = metric{median(inMs), "ms"}

	probes := tr.open("probes", -1)
	if err := probeLayers(d.sim.Source(), cfg.seed, cfg.sz, tr, probes, o); err != nil {
		return nil, err
	}
	tr.close(probes)
	return o, tr.write(traceFile(cfg, "sweep_fresh"))
}
