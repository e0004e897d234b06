package contention

import (
	"context"
	"fmt"
	"math"

	"smtflex/internal/config"
	"smtflex/internal/faults"
	"smtflex/internal/interval"
	"smtflex/internal/obs"
)

// Solver runs contention solves with reusable scratch buffers, so repeated
// solves — a design sweep evaluates tens of thousands of placements — stay
// allocation-free at steady state. The zero value is ready to use; buffers
// grow on first use and are reused afterwards.
//
// A Solver is NOT safe for concurrent use: callers that fan solves across
// workers keep one Solver per worker (the study's pool draws them from a
// sync.Pool). The returned Result's Threads and CoreUtilization slices alias
// the solver's scratch and are valid only until the next call on the same
// Solver; callers that retain them across solves must copy (the package
// Solve/SolveModel wrappers use a fresh Solver per call, so their results
// never alias shared state).
type Solver struct {
	// Per-core thread groups; group backing slices are reused across solves.
	group [][]int
	// Fixed-point state, one entry per thread.
	rate, llcShare, l1dShare, l2Share, l1iShare []float64
	// Previous-iteration state for the convergence residual.
	prevRate, prevLLC, prevL1D, prevL2 []float64
	// weights holds the LLC allocation weights (hoisted out of the
	// iteration loop — the seed engine rebuilt it every iteration).
	weights []float64
	// cacheW, ipcs and timeShare are the per-core inner-loop buffers.
	cacheW, ipcs, timeShare []float64
	// threads and coreUtil back the returned Result.
	threads  []ThreadResult
	coreUtil []float64
	// distinct is shareCaches' benchmark-dedup set, cleared per use.
	distinct map[string]bool
}

// NewSolver returns a Solver ready for repeated use.
func NewSolver() *Solver { return &Solver{} }

// Solve is SolveModel with the calibrated default model.
func (s *Solver) Solve(p Placement) (Result, error) {
	return s.SolveModel(p, DefaultModel())
}

// SolveModelCtx is SolveModel with the same span instrumentation as the
// package-level SolveModelCtx.
func (s *Solver) SolveModelCtx(ctx context.Context, p Placement, m Model) (Result, error) {
	_, sp := obs.StartSpan(ctx, "contention.solve")
	sp.SetAttr("threads", len(p.CoreOf))
	defer sp.End()
	res, err := s.SolveModel(p, m)
	if sp != nil {
		sp.SetAttr("iterations", res.Diag.Iterations)
		sp.SetAttr("residual", res.Diag.Residual)
		sp.SetAttr("converged", res.Diag.Converged)
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
	}
	return res, err
}

// growF returns buf with length n and every element zeroed, reusing the
// backing array when it is large enough.
func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// scratchF returns buf with length n and unspecified contents (every caller
// writes before reading), reusing the backing array when possible.
func scratchF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// prepare sizes the solver's state for n threads on nCores cores.
func (s *Solver) prepare(n, nCores int) {
	if cap(s.group) < nCores {
		g := make([][]int, nCores)
		copy(g, s.group)
		s.group = g
	}
	s.group = s.group[:nCores]
	for c := range s.group {
		s.group[c] = s.group[c][:0]
	}
	s.rate = scratchF(s.rate, n)
	s.llcShare = growF(s.llcShare, n)
	s.l1dShare = growF(s.l1dShare, n)
	s.l2Share = growF(s.l2Share, n)
	s.l1iShare = growF(s.l1iShare, n)
	s.prevRate = scratchF(s.prevRate, n)
	s.prevLLC = scratchF(s.prevLLC, n)
	s.prevL1D = scratchF(s.prevL1D, n)
	s.prevL2 = scratchF(s.prevL2, n)
	s.weights = scratchF(s.weights, n)
	if cap(s.threads) < n {
		s.threads = make([]ThreadResult, n)
	}
	s.threads = s.threads[:n]
	for i := range s.threads {
		s.threads[i] = ThreadResult{}
	}
	s.coreUtil = growF(s.coreUtil, nCores)
}

// SolveModel iterates to a fixed point with explicit model choices. The
// arithmetic and iteration order are exactly the seed engine's — results are
// bit-identical — only the buffer lifetimes differ.
func (s *Solver) SolveModel(p Placement, m Model) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	p = m.flatten(p)
	n := len(p.CoreOf)
	s.prepare(n, len(p.Design.Cores))
	res := Result{
		Threads:         s.threads,
		CoreUtilization: s.coreUtil,
	}
	if n == 0 {
		res.MemLatencyNs = m.memLatency(0, p.Design.MemBandwidthGBps)
		res.Diag.Converged = true
		return res, nil
	}

	// Per-core thread groups.
	group := s.group
	for i, c := range p.CoreOf {
		group[c] = append(group[c], i)
	}

	// State: absolute rates (µops/ns), initialized optimistically.
	rate := s.rate
	for i := range rate {
		cc := p.Design.Cores[p.CoreOf[i]]
		rate[i] = float64(cc.Width) * cc.FrequencyGHz / 2
	}
	llcShare := s.llcShare
	l1dShare := s.l1dShare
	l2Share := s.l2Share
	l1iShare := s.l1iShare

	llcBytes := float64(p.Design.LLC.SizeBytes)
	memLatNs := m.memLatency(0, p.Design.MemBandwidthGBps)

	f := m.dampFactor()
	maxIter := m.maxIterations()
	prevRate := s.prevRate
	prevLLC := s.prevLLC
	prevL1D := s.prevL1D
	prevL2 := s.prevL2
	weights := s.weights

	for iter := 0; iter < maxIter; iter++ {
		if err := faults.Check(faults.SiteSolver); err != nil {
			return Result{}, fmt.Errorf("contention: iteration %d: %w", iter, err)
		}
		copy(prevRate, rate)
		copy(prevLLC, llcShare)
		copy(prevL1D, l1dShare)
		copy(prevL2, l2Share)
		prevMemLat := memLatNs

		// --- Private cache shares within each core (allocation-weighted) ---
		for c, ths := range group {
			cc := p.Design.Cores[c]
			s.shareCaches(p, ths, rate, cc, l1iShare, l1dShare, l2Share, llcShare, memLatNs, f)
		}

		// --- LLC shares across all threads (allocation-weighted) ---
		var wsum float64
		for i := range weights {
			cc := p.Design.Cores[p.CoreOf[i]]
			sh := interval.Shares{L1I: l1iShare[i], L1D: l1dShare[i], L2: l2Share[i], LLC: llcShare[i], MemLatencyCycles: memLatNs * cc.FrequencyGHz}
			weights[i] = p.Profiles[i].LLCAccessesPerUop(sh) * rate[i]
			wsum += weights[i]
		}
		floor := 0.05 / float64(n)
		for i := range weights {
			var frac float64
			switch {
			case m.EqualLLCShares:
				frac = 1 / float64(n)
			case wsum > 1e-15:
				frac = weights[i] / wsum
			default:
				frac = 1 / float64(n)
			}
			frac = math.Max(frac, floor)
			llcShare[i] = damp(llcShare[i], frac*llcBytes, f)
		}
		normalizeShares(llcShare, llcBytes)

		// --- Memory traffic and latency (fills plus writebacks) ---
		var traffic float64 // blocks per ns
		for i := range rate {
			cc := p.Design.Cores[p.CoreOf[i]]
			sh := interval.Shares{L1I: l1iShare[i], L1D: l1dShare[i], L2: l2Share[i], LLC: llcShare[i], MemLatencyCycles: memLatNs * cc.FrequencyGHz}
			traffic += p.Profiles[i].DRAMAccessesPerUop(sh) * (1 + p.Profiles[i].WritebackFraction) * rate[i]
		}
		memLatNs = damp(memLatNs, m.memLatency(traffic, p.Design.MemBandwidthGBps), f)
		memLatNs = faults.Corrupt(faults.SiteSolver, memLatNs)

		// --- Per-thread CPI and per-core width/time sharing ---
		for c, ths := range group {
			if len(ths) == 0 {
				continue
			}
			cc := p.Design.Cores[c]
			ipcs := scratchF(s.ipcs, len(ths))
			timeShare := scratchF(s.timeShare, len(ths))
			s.ipcs, s.timeShare = ipcs, timeShare
			coRunners, tshare := smtOccupancy(cc, p.Design.SMTEnabled, len(ths))
			part := interval.Partition(cc, coRunners)
			for k, ti := range ths {
				sh := interval.Shares{
					L1I: l1iShare[ti], L1D: l1dShare[ti], L2: l2Share[ti], LLC: llcShare[ti],
					MemLatencyCycles: memLatNs * cc.FrequencyGHz,
				}
				st := p.Profiles[ti].Evaluate(cc, part, sh)
				res.Threads[ti].Stack = st
				res.Threads[ti].Shares = sh
				ipcs[k] = 1 / st.Total()
				timeShare[k] = tshare
			}
			if p.Design.SMTEnabled && coRunners > 1 {
				interval.ShareWidthEff(ipcs, cc.Width, m.effIssue())
			}
			for k, ti := range ths {
				res.Threads[ti].IPC = ipcs[k]
				res.Threads[ti].TimeShare = timeShare[k]
				rate[ti] = damp(rate[ti], ipcs[k]*timeShare[k]*cc.FrequencyGHz, f)
			}
		}

		// --- Convergence diagnostics over all damped state ---
		residual := relChange(prevMemLat, memLatNs)
		for i := 0; i < n; i++ {
			residual = math.Max(residual, relChange(prevRate[i], rate[i]))
			residual = math.Max(residual, relChange(prevLLC[i], llcShare[i]))
			residual = math.Max(residual, relChange(prevL1D[i], l1dShare[i]))
			residual = math.Max(residual, relChange(prevL2[i], l2Share[i]))
		}
		res.Diag.Iterations = iter + 1
		res.Diag.Residual = residual
		if !finiteState(memLatNs, rate, llcShare, l1dShare, l2Share) {
			return Result{Diag: res.Diag}, fmt.Errorf("%w: non-finite state after iteration %d", ErrDiverged, iter+1)
		}
		// With the default zero tolerance this fires only when an iteration
		// changed nothing at all, so stopping here is bit-identical to
		// running out the full budget.
		if residual <= m.Tolerance {
			res.Diag.Converged = true
			break
		}
	}
	if !res.Diag.Converged && m.Tolerance > 0 {
		return Result{Diag: res.Diag}, fmt.Errorf("%w: residual %.3g after %d iterations (tolerance %g)",
			ErrNotConverged, res.Diag.Residual, res.Diag.Iterations, m.Tolerance)
	}

	// Finalize.
	var traffic float64
	for i := range res.Threads {
		cc := p.Design.Cores[p.CoreOf[i]]
		res.Threads[i].UopsPerNs = rate[i]
		res.CoreUtilization[p.CoreOf[i]] += res.Threads[i].IPC * res.Threads[i].TimeShare / float64(cc.Width)
		traffic += p.Profiles[i].DRAMAccessesPerUop(res.Threads[i].Shares) * (1 + p.Profiles[i].WritebackFraction) * rate[i]
	}
	res.MemLatencyNs = memLatNs
	res.BusUtilization = math.Min(traffic*blockBytes/p.Design.MemBandwidthGBps, 1)
	publishMachStats(p, res)
	return res, nil
}

// shareCaches distributes the core-private cache capacities among the
// threads on one core, weighted by each thread's allocation rate into the
// cache (misses per ns), with a floor so no thread is starved to zero.
// Without SMT each time-shared thread uses the full capacity during its
// slice.
func (s *Solver) shareCaches(p Placement, ths []int, rate []float64, cc config.Core,
	l1iShare, l1dShare, l2Share, llcShare []float64, memLatNs, f float64) {
	if len(ths) == 0 {
		return
	}
	full := func(ti int) {
		l1iShare[ti] = float64(cc.L1I.SizeBytes)
		l1dShare[ti] = float64(cc.L1D.SizeBytes)
		l2Share[ti] = float64(cc.L2.SizeBytes)
	}
	if !p.Design.SMTEnabled || len(ths) == 1 {
		for _, ti := range ths {
			full(ti)
		}
		return
	}
	// Allocation weights: misses into L1D per ns approximate occupancy
	// pressure at every private level.
	n := len(ths)
	w := scratchF(s.cacheW, n)
	s.cacheW = w
	var sum float64
	for k, ti := range ths {
		sh := interval.Shares{L1I: l1iShare[ti], L1D: l1dShare[ti], L2: l2Share[ti], LLC: llcShare[ti], MemLatencyCycles: memLatNs * cc.FrequencyGHz}
		if sh.L1D == 0 { // first iteration: seed with equal split
			sh.L1D = float64(cc.L1D.SizeBytes) / float64(n)
			sh.L2 = float64(cc.L2.SizeBytes) / float64(n)
			sh.LLC = 1 << 20
		}
		miss := p.Profiles[ti].DCurve.At(sh.L1D / 64)
		w[k] = p.Profiles[ti].DataAPKU / 1000 * miss * rate[ti]
		sum += w[k]
	}
	floor := 0.08 / float64(n)
	for k, ti := range ths {
		var frac float64
		if sum > 1e-15 {
			frac = w[k] / sum
		} else {
			frac = 1 / float64(n)
		}
		frac = math.Max(frac, floor)
		l1dShare[ti] = damp(l1dShare[ti], frac*float64(cc.L1D.SizeBytes), f)
		l2Share[ti] = damp(l2Share[ti], frac*float64(cc.L2.SizeBytes), f)
	}
	normalizeSlice(l1dShare, ths, float64(cc.L1D.SizeBytes))
	normalizeSlice(l2Share, ths, float64(cc.L2.SizeBytes))

	// The I-cache is shared by *code*, not by thread: co-runners executing
	// the same benchmark fetch the same instructions, so the capacity splits
	// across distinct benchmarks, not across threads.
	if s.distinct == nil {
		s.distinct = make(map[string]bool)
	}
	clear(s.distinct)
	for _, ti := range ths {
		s.distinct[p.Profiles[ti].Benchmark] = true
	}
	iShare := float64(cc.L1I.SizeBytes) / float64(len(s.distinct))
	for _, ti := range ths {
		l1iShare[ti] = iShare
	}
}
