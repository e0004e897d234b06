// Package profiler measures interval.Profile characterizations by running
// the cycle engine on a benchmark in isolation with successively idealized
// machine components, plus a single stack-distance pass over the benchmark's
// address streams for the capacity curves.
//
// The decomposition: run A perfects branches, I-cache and data hierarchy to
// expose the base CPI (repeated at every ROB partition size the design space
// can produce); run B restores the real branch predictor; run C restores the
// real I-cache; run D restores the full data hierarchy. Successive CPI
// deltas give the branch, I-cache and memory components, and the memory
// component calibrates the interval model's visible-latency fraction.
package profiler

import (
	"context"
	"fmt"
	"sync/atomic"

	"smtflex/internal/cache"
	"smtflex/internal/config"
	"smtflex/internal/cpu"
	"smtflex/internal/faults"
	"smtflex/internal/interval"
	"smtflex/internal/isa"
	"smtflex/internal/mem"
	"smtflex/internal/memo"
	"smtflex/internal/multicore"
	"smtflex/internal/obs"
	"smtflex/internal/trace"
)

// profileSeed makes profiling traces independent of experiment traces.
const profileSeed = 0xF00D

// curveCapacities samples the miss curves from 4 KB to 128 MB.
var curveCapacities = func() []int {
	var caps []int
	for b := 4 << 10; b <= 128<<20; b *= 2 {
		caps = append(caps, b/isa.MemBlockSize)
	}
	return caps
}()

// baseWindows returns the ROB partition sizes to sample for a core type:
// every partition the SMT levels of the study can produce.
func baseWindows(cc config.Core) []int {
	if !cc.OutOfOrder {
		return []int{2 * cc.Width}
	}
	var ws []int
	// Iterating thread count from high to low yields ascending partitions,
	// so repeats are adjacent.
	for n := cc.SMTContexts; n >= 1; n-- {
		if w := interval.Partition(cc, n); len(ws) == 0 || w != ws[len(ws)-1] {
			ws = append(ws, w)
		}
	}
	return ws
}

// Source measures and caches profiles. It is safe for concurrent use.
type Source struct {
	// UopCount is the number of µops per measurement run.
	UopCount uint64
	// Warmup is the number of µops executed before measurement starts, so
	// cold caches and untrained predictors do not distort the components.
	Warmup uint64
	// CurveUops is the length of the (cheap) stack-distance pass for the
	// miss curves; a longer window resolves reuse at LLC-scale capacities.
	CurveUops uint64
	// CurveWarmup is the portion of the curve pass excluded from the curve.
	CurveWarmup uint64

	// profiles and curves memoize measurements with singleflight duplicate
	// suppression: concurrent misses for the same key measure once.
	profiles memo.Cache[profileKey, *interval.Profile]
	curves   memo.Cache[string, *curvePair]

	// measureRuns and curveRuns count underlying measurements — test
	// instrumentation for the stampede regression tests.
	measureRuns atomic.Int64
	curveRuns   atomic.Int64
}

type profileKey struct {
	bench string
	core  config.CoreType
}

type curvePair struct {
	data, code cache.MissCurve
	dataAPKU   float64
	iBlockAPKU float64
}

// NewSource returns a Source measuring runs of uopCount µops each.
func NewSource(uopCount uint64) *Source {
	if uopCount == 0 {
		uopCount = 200_000
	}
	s := &Source{
		UopCount:    uopCount,
		Warmup:      2 * uopCount,
		CurveUops:   8 * uopCount,
		CurveWarmup: 2 * uopCount,
	}
	s.profiles.Name = "profiles"
	s.curves.Name = "curves"
	return s
}

// CacheCounters snapshots the profile and curve cache counters for the
// daemon's per-cache metrics.
func (s *Source) CacheCounters() []memo.Counters {
	return []memo.Counters{s.profiles.Counters(), s.curves.Counters()}
}

// Profile returns the (cached) profile of spec on core type ct. Concurrent
// calls for the same (benchmark, core type) measure once; the callers that
// lose the race block and share the winner's profile. A failed measurement is
// not cached: a later call retries it.
func (s *Source) Profile(spec trace.Spec, ct config.CoreType) (*interval.Profile, error) {
	return s.ProfileCtx(context.Background(), spec, ct)
}

// ProfileCtx is Profile with tracing: when ctx carries an active trace, an
// actual measurement (a cache miss) is recorded as a "profiler.profile" span
// nested under the cache's memo.get span. Cache hits — the overwhelming
// majority once the engine is warm — are not spanned; see memo.GetTraced.
// The profile returned is identical to Profile's; the context is
// observational only and does not cancel a measurement.
func (s *Source) ProfileCtx(ctx context.Context, spec trace.Spec, ct config.CoreType) (*interval.Profile, error) {
	return s.profiles.GetTraced(ctx, profileKey{bench: spec.Name, core: ct}, func(ctx context.Context) (*interval.Profile, error) {
		ctx, sp := obs.StartSpan(ctx, "profiler.profile")
		sp.SetAttr("benchmark", spec.Name)
		sp.SetAttr("core", ct.String())
		defer sp.End()
		return s.measure(ctx, spec, ct)
	})
}

// curvesFor computes (or returns cached) reuse curves for the benchmark,
// with the same duplicate suppression as Profile.
func (s *Source) curvesFor(ctx context.Context, spec trace.Spec) (*curvePair, error) {
	return s.curves.GetTraced(ctx, spec.Name, func(ctx context.Context) (*curvePair, error) {
		_, sp := obs.StartSpan(ctx, "profiler.curves")
		sp.SetAttr("benchmark", spec.Name)
		defer sp.End()
		return s.measureCurves(spec)
	})
}

// measureCurves runs the stack-distance pass behind curvesFor's cache.
func (s *Source) measureCurves(spec trace.Spec) (*curvePair, error) {
	s.curveRuns.Add(1)
	g, err := trace.NewGenerator(spec, profileSeed)
	if err != nil {
		return nil, err
	}
	dataProf := cache.NewStackProfiler(0)
	codeProf := cache.NewStackProfiler(0)
	var dataAccesses, iBlocks uint64
	var lastBlock uint64
	var dataSnap, codeSnap cache.Snapshot
	for i := uint64(0); i < s.CurveWarmup+s.CurveUops; i++ {
		if i == s.CurveWarmup {
			dataSnap = dataProf.Checkpoint()
			codeSnap = codeProf.Checkpoint()
			dataAccesses, iBlocks = 0, 0
		}
		u := g.Next()
		if u.Class.IsMem() {
			dataAccesses++
			dataProf.Touch(cache.BlockAddr(u.Addr))
		}
		if blk := cache.BlockAddr(u.PC); blk != lastBlock {
			lastBlock = blk
			iBlocks++
			codeProf.Touch(blk)
		}
	}
	kilo := float64(s.CurveUops) / 1000
	return &curvePair{
		data:       dataProf.MissRatioCurve(dataSnap, curveCapacities),
		code:       codeProf.MissRatioCurve(codeSnap, curveCapacities),
		dataAPKU:   float64(dataAccesses) / kilo,
		iBlockAPKU: float64(iBlocks) / kilo,
	}, nil
}

// run is one idealization run of a profile: the core it simulates (base
// windows differ in ROB size) and what it idealizes.
type run struct {
	cc    config.Core
	ideal cpu.Ideal
}

// profileRuns lists the idealization runs of a profile on cc, in the order
// assemble reads them: A (perfect everything) at every base window,
// ascending, then B (real branches), C (real I-cache), D (real data
// hierarchy) and, for SMT out-of-order cores, Dmin (D at the smallest SMT
// partition). The runs with an ideal data hierarchy form a prefix.
func profileRuns(cc config.Core) []run {
	var runs []run
	for _, w := range baseWindows(cc) {
		wcc := cc
		if cc.OutOfOrder {
			wcc.ROBSize = w
		}
		runs = append(runs, run{wcc, cpu.Ideal{Branch: true, ICache: true, DCache: true}})
	}
	runs = append(runs, run{cc, cpu.Ideal{ICache: true, DCache: true}}, run{cc, cpu.Ideal{DCache: true}}, run{cc, cpu.Ideal{}})
	if cc.OutOfOrder && cc.SMTContexts > 1 {
		runs = append(runs, run{runs[0].cc, cpu.Ideal{}}) // the smallest partition
	}
	return runs
}

// measured holds the warm-window measurement of one run.
type measured struct {
	cpi         float64
	mispredicts float64 // per µop
	wbFraction  float64 // DRAM writebacks per DRAM fill
}

// simulate measures every run. Consecutive runs with an ideal data
// hierarchy reach their LLC only on instruction misses, a few lazily
// allocated sets, so they share one trace pass; D and Dmin fill theirs with
// data and get a pass each, so one such LLC is live at a time.
func (s *Source) simulate(spec trace.Spec, runs []run) ([]measured, error) {
	res := make([]measured, len(runs))
	for lo, hi := 0, 1; lo < len(runs); lo, hi = hi, hi+1 {
		for hi < len(runs) && runs[lo].ideal.DCache && runs[hi].ideal.DCache {
			hi++
		}
		if err := s.runLockstep(spec, runs[lo:hi], res[lo:hi]); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// chunkUops is the length of the µop chunk a trace pass hands its runs: long
// enough to amortize switching chips, short enough (160 KB) to stay cached.
const chunkUops = 4096

// chunkReader replays the chunk the trace pass last generated to one chip
// after another. Reading past its end panics: a chip consuming more than
// its share would break the lockstep.
type chunkReader struct {
	uops []isa.Uop
	pos  int
}

// Next implements trace.Reader.
func (r *chunkReader) Next() isa.Uop {
	r.pos++
	return r.uops[r.pos-1]
}

// runLockstep simulates each run alone on its own single-core chip, all fed
// by one profileSeed generator: it fills a chunk, every chip consumes
// exactly that chunk, and so on. A one-thread chip reads one µop per retired
// µop, so each chip sees the Warmup+UopCount prefix a private generator
// would give it. A chunk ends at Warmup, where the warm window starts.
func (s *Source) runLockstep(spec trace.Spec, runs []run, out []measured) error {
	g, err := trace.NewGenerator(spec, profileSeed)
	if err != nil {
		return err
	}
	chips := make([]*multicore.Chip, len(runs))
	rd := &chunkReader{}
	for i, r := range runs {
		d := config.Design{Name: "profiling", MemBandwidthGBps: 8, Cores: []config.Core{r.cc}}
		llc := config.LLCConfig()
		d.LLC.SizeBytes, d.LLC.Assoc, d.LLC.LatencyCycles = llc.SizeBytes, llc.Assoc, llc.LatencyCycles
		if chips[i], err = multicore.New(d, r.ideal); err != nil {
			return err
		}
		if _, err := chips[i].AttachThread(0, rd); err != nil {
			return err
		}
	}
	chunk := make([]isa.Uop, min(chunkUops, s.Warmup+s.UopCount))
	var stats [2][]cpu.ThreadStats // at Warmup and at the end
	var dram [2][]mem.Stats
	done := uint64(0)
	for e, edge := range []uint64{s.Warmup, s.Warmup + s.UopCount} {
		for done < edge {
			buf := chunk[:min(uint64(len(chunk)), edge-done)]
			for i := range buf {
				buf[i] = g.Next()
			}
			done += uint64(len(buf))
			for _, c := range chips {
				*rd = chunkReader{uops: buf}
				c.Run(done)
			}
		}
		for _, c := range chips {
			stats[e], dram[e] = append(stats[e], c.ThreadStats(0)), append(dram[e], c.DRAMStats())
		}
	}
	for i := range chips {
		warm, final := stats[0][i], stats[1][i]
		duops := float64(final.Uops - warm.Uops)
		out[i] = measured{
			cpi:         (final.FinishTime - warm.FinishTime) / duops,
			mispredicts: float64(final.Mispredicts-warm.Mispredicts) / duops,
		}
		if fills := dram[1][i].Accesses - dram[0][i].Accesses; fills > 0 {
			out[i].wbFraction = float64(dram[1][i].Writebacks-dram[0][i].Writebacks) / float64(fills)
		}
	}
	return nil
}

func (s *Source) measure(ctx context.Context, spec trace.Spec, ct config.CoreType) (*interval.Profile, error) {
	ctx, sp := obs.StartSpan(ctx, "profiler.measure")
	sp.SetAttr("benchmark", spec.Name)
	sp.SetAttr("core", ct.String())
	defer sp.End()
	s.measureRuns.Add(1)
	if err := faults.Check(faults.SiteProfiler); err != nil {
		return nil, err
	}
	curves, err := s.curvesFor(ctx, spec)
	if err != nil {
		return nil, err
	}
	res, err := s.simulate(spec, profileRuns(config.CoreOfType(ct)))
	if err != nil {
		return nil, err
	}
	return assemble(spec, ct, curves, res)
}

// assemble derives the profile of spec on core type ct from its curves and
// the measurements of profileRuns, in that order.
func assemble(spec trace.Spec, ct config.CoreType, curves *curvePair, res []measured) (*interval.Profile, error) {
	cc := config.CoreOfType(ct)
	p := &interval.Profile{
		Benchmark:   spec.Name,
		Core:        ct,
		DataAPKU:    curves.dataAPKU,
		IBlockAPKU:  curves.iBlockAPKU,
		DCurve:      curves.data,
		ICurve:      curves.code,
		BaseWindows: baseWindows(cc),
	}
	// Base CPI at every reachable ROB partition (perfect everything).
	nw := len(p.BaseWindows)
	for _, m := range res[:nw] {
		p.BaseCPIs = append(p.BaseCPIs, m.cpi)
	}
	cpiA := p.BaseCPIs[nw-1] // full-window base CPI

	// Each of B, C and D restores one real component; the CPI deltas are
	// the branch, I-cache and memory components.
	stB, stC, stD := res[nw], res[nw+1], res[nw+2]
	p.BrCPI = clampNonNeg(stB.cpi - cpiA)
	p.BrMPKU = stB.mispredicts * 1000
	p.L1ICPI = clampNonNeg(stC.cpi - stB.cpi)
	memCPI := clampNonNeg(stD.cpi - stC.cpi)
	p.BaselineMemCPI = memCPI
	p.WritebackFraction = stD.wbFraction

	// Calibrate the visible-latency fraction so that Evaluate reproduces the
	// measured memory CPI at the baseline configuration.
	rawMem := rawMemCost(p, cc, fullWindow(cc), baselineShares(cc))
	p.Visible = 1
	p.VisibleWindow = fullWindow(cc)
	if rawMem > 1e-9 {
		p.Visible = memCPI / rawMem
	}
	// Latency overlap can only hide latency: a visible fraction above one
	// means the curve model under-predicts baseline misses (set conflicts);
	// charge the unexplained remainder as a constant instead of letting it
	// amplify capacity-sharing effects.
	if p.Visible > 1 {
		p.Visible = 1
		p.MemConstCPI = memCPI - rawMem
	}

	// For out-of-order cores, the real-hierarchy run is repeated at the
	// smallest SMT partition (Dmin): the shrunken window holds fewer
	// outstanding misses, so more of the latency becomes visible. The
	// interval model interpolates between the two calibration points.
	if len(res) > nw+3 {
		stDmin := res[nw+3]
		wmin := interval.Partition(cc, cc.SMTContexts)
		memCPImin := clampNonNeg(stDmin.cpi - p.BaseCPI(wmin) - p.BrCPI - p.L1ICPI - p.MemConstCPI)
		p.VisibleMinWindow = wmin
		p.VisibleMin = p.Visible
		if rawMem > 1e-9 {
			p.VisibleMin = memCPImin / rawMem
		}
		if p.VisibleMin > 1 {
			p.VisibleMin = 1
		}
		// A smaller window never hides more latency than the full one.
		if p.VisibleMin < p.Visible {
			p.VisibleMin = p.Visible
		}
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("profiler: %s on %s: %w", spec.Name, ct, err)
	}
	return p, nil
}

// rawMemCost evaluates the un-calibrated (visible=1) memory CPI of p on cc.
func rawMemCost(p *interval.Profile, cc config.Core, w int, sh interval.Shares) float64 {
	probe := *p
	probe.Visible = 1
	probe.VisibleMin = 0
	raw := probe.Evaluate(cc, w, sh)
	return raw.L2 + raw.LLC + raw.Mem
}

// baselineShares returns the capacity shares of a thread running alone on
// core cc with the whole LLC and uncontended memory.
func baselineShares(cc config.Core) interval.Shares {
	mc := config.MemConfig(8)
	return interval.Shares{
		L1I:              float64(cc.L1I.SizeBytes),
		L1D:              float64(cc.L1D.SizeBytes),
		L2:               float64(cc.L2.SizeBytes),
		LLC:              float64(config.LLCConfig().SizeBytes),
		MemLatencyCycles: uncontendedMemLatency(mc),
	}
}

func uncontendedMemLatency(mc mem.Config) float64 {
	return float64(mc.AccessTimeCycles) + mc.BusCyclesPerBlock()
}

func fullWindow(cc config.Core) int {
	if !cc.OutOfOrder {
		return 2 * cc.Width
	}
	return cc.ROBSize
}

func clampNonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}
