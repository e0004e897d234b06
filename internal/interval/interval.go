// Package interval implements the analytic interval model used for the
// design-space sweeps: given a benchmark's measured profile, it predicts the
// thread's CPI on any core type, at any SMT level (static ROB partitioning,
// shared dispatch width, shared private caches) and under any shared-LLC
// capacity and memory latency, without re-running the cycle engine.
//
// This mirrors the original study's methodology: Sniper itself is built on
// interval simulation, and the CPI-stack decomposition used here follows the
// first author's published interval models. Profiles are measured once per
// (benchmark, core type) with the cycle engine (see package profiler) by
// successive idealization, and the interval model is calibrated so that at
// the measurement baseline it reproduces the cycle engine's CPI exactly.
package interval

import (
	"fmt"
	"math"

	"smtflex/internal/cache"
	"smtflex/internal/config"
	"smtflex/internal/isa"
	"smtflex/internal/machstats"
)

// Profile characterizes one benchmark on one core microarchitecture.
type Profile struct {
	// Benchmark is the workload name.
	Benchmark string
	// Core is the core type the calibration ran on.
	Core config.CoreType

	// BaseWindows and BaseCPIs tabulate the base CPI (perfect branch
	// prediction, perfect caches) as a function of the ROB partition size.
	// In-order cores have a single entry. Windows ascend.
	BaseWindows []int
	BaseCPIs    []float64

	// BrCPI is the measured CPI contribution of real branch prediction.
	BrCPI float64
	// BrMPKU is mispredicts per kilo-µop with the real predictor.
	BrMPKU float64

	// L1ICPI is the measured CPI contribution of the real I-cache at the
	// baseline I-cache capacity.
	L1ICPI float64
	// IBlockAPKU is I-cache block transitions per kilo-µop.
	IBlockAPKU float64
	// ICurve is the code stream's miss-ratio-versus-capacity curve.
	ICurve cache.MissCurve

	// DataAPKU is data accesses (loads+stores) per kilo-µop.
	DataAPKU float64
	// DCurve is the data stream's miss-ratio-versus-capacity curve; the
	// hierarchy is modelled as capacity thresholds on this single curve.
	DCurve cache.MissCurve

	// Visible is the calibrated fraction of raw memory-hierarchy latency
	// that appears in the CPI (out-of-order overlap and MLP hide the rest;
	// pointer-chasing plus queueing can push it slightly above 1). It is
	// calibrated at the full ROB (VisibleWindow).
	Visible float64
	// VisibleWindow is the window Visible was calibrated at.
	VisibleWindow int
	// VisibleMin is the visible fraction at the smallest ROB partition
	// (VisibleMinWindow); a smaller partition holds fewer outstanding
	// misses, so less latency is hidden. Zero means "same as Visible".
	VisibleMin       float64
	VisibleMinWindow int

	// MemConstCPI is the part of the measured baseline memory CPI the
	// curve model cannot attribute (set conflicts the fully-associative
	// curves miss). It is charged as a constant, so it never amplifies
	// capacity-sharing effects.
	MemConstCPI float64

	// WritebackFraction is the measured ratio of DRAM writebacks to DRAM
	// fills at calibration; the contention solver scales bus traffic by
	// 1+WritebackFraction.
	WritebackFraction float64

	// BaselineMemCPI is the measured memory-hierarchy CPI at calibration
	// (for reporting and tests).
	BaselineMemCPI float64
}

// Validate reports structural problems.
func (p *Profile) Validate() error {
	if p.Benchmark == "" {
		return fmt.Errorf("interval: profile without benchmark name")
	}
	if len(p.BaseWindows) == 0 || len(p.BaseWindows) != len(p.BaseCPIs) {
		return fmt.Errorf("interval: profile %s: bad base curve", p.Benchmark)
	}
	for i := 1; i < len(p.BaseWindows); i++ {
		if p.BaseWindows[i] <= p.BaseWindows[i-1] {
			return fmt.Errorf("interval: profile %s: base windows not ascending", p.Benchmark)
		}
	}
	if !p.DCurve.Valid() || !p.ICurve.Valid() {
		return fmt.Errorf("interval: profile %s: invalid miss curve", p.Benchmark)
	}
	if p.Visible < 0 {
		return fmt.Errorf("interval: profile %s: negative visible fraction", p.Benchmark)
	}
	return nil
}

// BaseCPI interpolates the base CPI at ROB partition w. Outside the sampled
// range it clamps. Smaller windows have higher CPI.
func (p *Profile) BaseCPI(w int) float64 {
	ws := p.BaseWindows
	n := len(ws)
	if n == 1 || w <= ws[0] {
		return p.BaseCPIs[0]
	}
	if w >= ws[n-1] {
		return p.BaseCPIs[n-1]
	}
	i := 1
	for ws[i] < w {
		i++
	}
	lo, hi := float64(ws[i-1]), float64(ws[i])
	f := (float64(w) - lo) / (hi - lo)
	return p.BaseCPIs[i-1] + f*(p.BaseCPIs[i]-p.BaseCPIs[i-1])
}

// Shares describes the capacity fractions a thread receives of the shared
// structures, in bytes, plus the contended memory latency it observes.
type Shares struct {
	// L1I, L1D and L2 are the thread's byte shares of the core-private
	// caches (the full capacity when running alone on the core).
	L1I, L1D, L2 float64
	// LLC is the thread's byte share of the shared last-level cache.
	LLC float64
	// MemLatencyCycles is the contended DRAM latency in core cycles,
	// including queueing.
	MemLatencyCycles float64
}

// crossbarLatency mirrors the cycle engine's interconnect hop cost.
const crossbarLatency = 3

// CPIStack is the decomposed cycles-per-µop prediction.
type CPIStack struct {
	Base   float64
	Branch float64
	ICache float64
	L2     float64 // L1D misses serviced by the private L2
	LLC    float64 // L2 misses serviced by the shared LLC
	Mem    float64 // LLC misses serviced by DRAM
}

// Total returns the full CPI.
func (s CPIStack) Total() float64 {
	return s.Base + s.Branch + s.ICache + s.L2 + s.LLC + s.Mem
}

// Components returns the stack in machstats' canonical component vocabulary
// and order. Summing the components left to right reproduces Total() exactly
// (same additions, same order) — the conservation property the
// counter-conservation test pins.
func (s CPIStack) Components() []machstats.Component {
	return []machstats.Component{
		{Name: machstats.CompBase, CPI: s.Base},
		{Name: machstats.CompBranch, CPI: s.Branch},
		{Name: machstats.CompICache, CPI: s.ICache},
		{Name: machstats.CompL2, CPI: s.L2},
		{Name: machstats.CompLLC, CPI: s.LLC},
		{Name: machstats.CompMem, CPI: s.Mem},
	}
}

// blocks converts a byte capacity to cache blocks for curve lookups.
func blocks(bytes float64) float64 { return bytes / isa.MemBlockSize }

// VisibleAt interpolates the visible-latency fraction at ROB partition w:
// smaller partitions expose more of the memory latency because fewer misses
// fit in flight.
func (p *Profile) VisibleAt(w int) float64 {
	if p.VisibleMin == 0 || p.VisibleMinWindow == 0 ||
		p.VisibleWindow <= p.VisibleMinWindow {
		return p.Visible
	}
	if w >= p.VisibleWindow {
		return p.Visible
	}
	if w <= p.VisibleMinWindow {
		return p.VisibleMin
	}
	f := float64(w-p.VisibleMinWindow) / float64(p.VisibleWindow-p.VisibleMinWindow)
	return p.VisibleMin + f*(p.Visible-p.VisibleMin)
}

// CoreTerms are the parts of a CPI stack that depend only on the core, the
// ROB partition and the I-cache share: the base and branch CPI, the I-cache
// CPI and the visible-latency fraction. A contention solve fixes all three
// inputs per thread, so it computes these once and re-evaluates only the
// data side as the shares move.
type CoreTerms struct {
	Base, Branch, ICache float64
	// Visible is VisibleAt at the partition.
	Visible float64
}

// CoreTerms computes the core-fixed terms on core cc with ROB partition
// window w and an I-cache share of l1iBytes.
func (p *Profile) CoreTerms(cc *config.Core, w int, l1iBytes float64) CoreTerms {
	t := CoreTerms{Base: p.BaseCPI(w), Branch: p.BrCPI, Visible: p.VisibleAt(w)}

	// I-cache: rescale the measured baseline contribution by the miss-count
	// ratio at the thread's I-cache share.
	baseIMiss := p.ICurve.At(blocks(float64(cc.L1I.SizeBytes)))
	curIMiss := p.ICurve.At(blocks(l1iBytes))
	if baseIMiss > 1e-12 {
		t.ICache = p.L1ICPI * (curIMiss / baseIMiss)
	} else if curIMiss > 1e-12 {
		// The baseline had essentially no I-misses; charge raw latency.
		t.ICache = t.Visible * p.IBlockAPKU / 1000 * curIMiss * float64(cc.L2.LatencyCycles)
	}
	return t
}

// Evaluate predicts the thread's CPI stack on core cc with ROB partition
// window w and the given shares. The hierarchy is modelled as capacity
// thresholds on the data reuse curve: accesses missing in the L1D share go
// to the L2, those missing in L1D+L2 go to the LLC, and those missing in
// L1D+L2+LLC go to DRAM.
func (p *Profile) Evaluate(cc config.Core, w int, sh Shares) CPIStack {
	return p.EvaluateData(&cc, p.CoreTerms(&cc, w, sh.L1I), sh)
}

// EvaluateData completes the CPI stack from precomputed core terms t and the
// thread's data-side shares; sh.L1I is not read (t already accounts for it).
// Evaluate is EvaluateData after CoreTerms, so both give identical stacks.
func (p *Profile) EvaluateData(cc *config.Core, t CoreTerms, sh Shares) CPIStack {
	st := CPIStack{Base: t.Base, Branch: t.Branch, ICache: t.ICache}
	v := t.Visible

	apu := p.DataAPKU / 1000
	mL1 := p.DCurve.At(blocks(sh.L1D))
	mL2 := p.DCurve.At(blocks(sh.L1D + sh.L2))
	mLLC := p.DCurve.At(blocks(sh.L1D + sh.L2 + sh.LLC))
	// Monotonicity guard: capacities stack, so deeper levels see fewer misses.
	mL2 = math.Min(mL2, mL1)
	mLLC = math.Min(mLLC, mL2)

	l2Accesses := apu * mL1
	llcAccesses := apu * mL2
	dramAccesses := apu * mLLC
	st.L2 = v*(l2Accesses-llcAccesses)*float64(cc.L2.LatencyCycles) + p.MemConstCPI
	st.LLC = v * (llcAccesses - dramAccesses) * float64(cc.L2.LatencyCycles+crossbarLatency+30)
	st.Mem = v * dramAccesses * (float64(cc.L2.LatencyCycles+crossbarLatency+30) + sh.MemLatencyCycles)
	return st
}

// DRAMAccessesPerUop returns the thread's DRAM block transfers per µop at
// the given shares, used by the contention solver to compute bus traffic.
func (p *Profile) DRAMAccessesPerUop(sh Shares) float64 {
	m := p.DCurve.At(blocks(sh.L1D + sh.L2 + sh.LLC))
	return p.DataAPKU / 1000 * m
}

// LLCAccessesPerUop returns LLC accesses per µop at the given shares, used
// to weight LLC capacity competition.
func (p *Profile) LLCAccessesPerUop(sh Shares) float64 {
	m := p.DCurve.At(blocks(sh.L1D + sh.L2))
	return p.DataAPKU / 1000 * m
}

// SMTIssueEfficiency is the fraction of the core's dispatch width usable
// when multiple SMT threads compete for it; it models fetch fragmentation
// and partitioning overheads not captured by the per-thread CPI stacks.
// Calibrated against the cycle engine: co-running width-bound threads
// sustain ≈97-98% of the dispatch width under round-robin fetch (multiple
// ready threads fill nearly every slot).
const SMTIssueEfficiency = 0.97

// ShareWidth scales per-thread IPCs so their sum does not exceed the core's
// effective dispatch width. ipcs is modified in place and returned. Threads
// below their fair share keep their full IPC; the scaling is proportional,
// which approximates round-robin dispatch with full slot reuse.
func ShareWidth(ipcs []float64, width int) []float64 {
	return ShareWidthEff(ipcs, width, SMTIssueEfficiency)
}

// ShareWidthEff is ShareWidth with an explicit issue efficiency, used by the
// ablation studies.
func ShareWidthEff(ipcs []float64, width int, efficiency float64) []float64 {
	var sum float64
	for _, v := range ipcs {
		sum += v
	}
	capacity := efficiency * float64(width)
	if len(ipcs) <= 1 || sum <= capacity {
		return ipcs
	}
	scale := capacity / sum
	for i := range ipcs {
		ipcs[i] *= scale
	}
	return ipcs
}

// Partition returns the per-thread ROB partition for n threads on core cc.
func Partition(cc config.Core, n int) int {
	if !cc.OutOfOrder || n <= 0 {
		return 1
	}
	p := cc.ROBSize / n
	if p < cc.Width {
		p = cc.Width
	}
	return p
}
