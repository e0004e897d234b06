// Package sched maps the threads of a workload onto the cores of a design
// point, following the paper's scheduling principles: schedule threads on
// the big cores before the small ones, spread threads across cores before
// engaging SMT, and use offline analysis (here: the interval model) to pick
// which thread goes to which core and which threads co-run on an SMT core.
package sched

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"smtflex/internal/config"
	"smtflex/internal/contention"
	"smtflex/internal/interval"
	"smtflex/internal/obs"
	"smtflex/internal/trace"
	"smtflex/internal/workload"
)

// ProfileSource provides benchmark profiles per core type; package profiler
// implements it. A failed measurement reports an error instead of a profile;
// the scheduler propagates it to the caller.
type ProfileSource interface {
	Profile(spec trace.Spec, ct config.CoreType) (*interval.Profile, error)
}

// CtxProfileSource is implemented by profile sources whose lookups accept a
// context for observability (package profiler). PlaceCtx uses it when the
// source offers it, so profile spans nest under the placement span.
type CtxProfileSource interface {
	ProfileCtx(ctx context.Context, spec trace.Spec, ct config.CoreType) (*interval.Profile, error)
}

// ctxSource adapts a CtxProfileSource back to ProfileSource with a fixed
// context, so Place's single code path serves both entry points. The stored
// context is purely observational (never used for cancellation).
type ctxSource struct {
	ctx context.Context
	cs  CtxProfileSource
}

func (c ctxSource) Profile(spec trace.Spec, ct config.CoreType) (*interval.Profile, error) {
	return c.cs.ProfileCtx(c.ctx, spec, ct)
}

// PlaceCtx is Place with tracing: when ctx carries an active trace the
// placement is recorded as a "sched.place" span, with the profile lookups it
// triggers nested inside when src implements CtxProfileSource. The placement
// returned is identical to Place's.
func PlaceCtx(ctx context.Context, d config.Design, mix workload.Mix, src ProfileSource) (contention.Placement, error) {
	ctx, sp := obs.StartSpan(ctx, "sched.place")
	sp.SetAttr("design", d.Name)
	sp.SetAttr("mix", mix.ID)
	sp.SetAttr("threads", mix.NumThreads())
	defer sp.End()
	if cs, ok := src.(CtxProfileSource); ok {
		src = ctxSource{ctx: ctx, cs: cs}
	}
	return Place(d, mix, src)
}

// soloIPC estimates a thread's isolated IPC on core cc with a full window
// and uncontended memory — the "offline analysis" signal.
func soloIPC(p *interval.Profile, cc *config.Core) float64 {
	sh := interval.Shares{
		L1I: float64(cc.L1I.SizeBytes),
		L1D: float64(cc.L1D.SizeBytes),
		L2:  float64(cc.L2.SizeBytes),
		LLC: float64(config.LLCConfig().SizeBytes),
		// Uncontended: 45ns at the core's frequency plus one bus transfer.
		MemLatencyCycles: 45*cc.FrequencyGHz + 64/(8.0/cc.FrequencyGHz),
	}
	w := cc.ROBSize
	if !cc.OutOfOrder {
		w = 2 * cc.Width
	}
	return 1 / p.EvaluateData(cc, p.CoreTerms(cc, w, sh.L1I), sh).Total()
}

// byType holds one value per core type, indexed by config.CoreType.
type byType[T any] [config.NumCoreTypes]T

// coreTypes returns, per core type, the first core of that type in the
// design, or nil when the design has none.
func coreTypes(d *config.Design) byType[*config.Core] {
	var cfg byType[*config.Core]
	for c := range d.Cores {
		if cc := &d.Cores[c]; cfg[cc.Type] == nil {
			cfg[cc.Type] = cc
		}
	}
	return cfg
}

// profilesByType resolves each thread's profile for every core type present
// in the design, fetching in ascending core-type order. Threads running the
// same benchmark share its profiles, so each distinct program is looked up
// once.
func profilesByType(d *config.Design, mix workload.Mix, src ProfileSource) ([]byType[*interval.Profile], error) {
	types := coreTypes(d)
	out := make([]byType[*interval.Profile], mix.NumThreads())
	for i, name := range mix.Programs {
		if j := slices.Index(mix.Programs[:i], name); j >= 0 {
			out[i] = out[j]
			continue
		}
		spec, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		for t, cc := range types {
			if cc == nil {
				continue
			}
			p, err := src.Profile(spec, config.CoreType(t))
			if err != nil {
				return nil, fmt.Errorf("sched: profiling %s on %s: %w", spec.Name, config.CoreType(t), err)
			}
			out[i][t] = p
		}
	}
	return out, nil
}

// Place builds a contention.Placement for the mix on the design.
//
// Phase 1 gives each thread its own core while cores remain, big cores
// first, assigning the threads that benefit most from a big core (highest
// big-to-own-type IPC ratio) to the biggest cores. Phase 2 (more threads
// than cores) adds each remaining thread to the core where the projected
// marginal chip throughput is highest, respecting SMT context limits; with
// SMT disabled, excess threads time-share, filling big cores first.
func Place(d config.Design, mix workload.Mix, src ProfileSource) (contention.Placement, error) {
	if err := d.Validate(); err != nil {
		return contention.Placement{}, err
	}
	n := mix.NumThreads()
	if n == 0 {
		return contention.Placement{}, fmt.Errorf("sched: empty mix %s", mix.ID)
	}

	// Resolve profiles per core type present in the design.
	prof, err := profilesByType(&d, mix, src)
	if err != nil {
		return contention.Placement{}, err
	}

	// Offline signal: solo IPC of each thread on each core type of the design.
	typeCfg := coreTypes(&d)
	ipcOn := make([]byType[float64], n)
	for i := range ipcOn {
		for t, cc := range typeCfg {
			if cc != nil {
				ipcOn[i][t] = soloIPC(prof[i][t], cc)
			}
		}
	}

	coreOf := make([]int, n)
	for i := range coreOf {
		coreOf[i] = -1
	}
	perCore := make([][]int, len(d.Cores))

	// Phase 1: one thread per core, big cores first. Order threads by how
	// much they gain from the biggest core type relative to the smallest
	// present, so big-core-sensitive threads land on big cores.
	biggest, smallest := d.Cores[0].Type, d.Cores[len(d.Cores)-1].Type
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ta, tb := order[a], order[b]
		ra := ipcOn[ta][biggest] / ipcOn[ta][smallest]
		rb := ipcOn[tb][biggest] / ipcOn[tb][smallest]
		return ra > rb
	})
	phase1 := n
	if phase1 > len(d.Cores) {
		phase1 = len(d.Cores)
	}
	for k := 0; k < phase1; k++ {
		ti := order[k]
		coreOf[ti] = k
		perCore[k] = append(perCore[k], ti)
	}

	// Phase 2: place remaining threads by best marginal throughput. The
	// tiny occupancy penalty breaks exact ties (identical threads under
	// time sharing have zero marginal gain everywhere) toward the least
	// loaded core, i.e. round-robin.
	const tieBreak = 1e-6
	est := estimator{smt: d.SMTEnabled, ipcOn: ipcOn, prof: prof}
	for k := phase1; k < n; k++ {
		ti := order[k]
		best, bestGain := -1, 0.0
		for c := range d.Cores {
			gain := est.marginalGain(&d.Cores[c], perCore[c], ti) -
				tieBreak*float64(len(perCore[c]))
			if best < 0 || gain > bestGain {
				best, bestGain = c, gain
			}
		}
		coreOf[ti] = best
		perCore[best] = append(perCore[best], ti)
	}

	profiles := make([]*interval.Profile, n)
	for i := range profiles {
		profiles[i] = prof[i][d.Cores[coreOf[i]].Type]
	}
	return contention.Placement{Design: d, CoreOf: coreOf, Profiles: profiles}, nil
}

// estimator projects core throughput for phase 2 of Place from the offline
// signal. ths and ipcs are scratch reused across projections.
type estimator struct {
	smt   bool
	ipcOn []byType[float64]
	prof  []byType[*interval.Profile]
	ths   []int
	ipcs  []float64
}

// marginalGain projects the change in core throughput (µops per ns) from
// adding thread ti to core cc.
func (e *estimator) marginalGain(cc *config.Core, residents []int, ti int) float64 {
	before := e.coreThroughput(cc, residents, -1)
	after := e.coreThroughput(cc, residents, ti)
	return after - before
}

// coreThroughput estimates the summed IPC×timeShare of the residents (plus
// thread extra, when it is not negative) on core cc, accounting for ROB
// partitioning, width sharing and time sharing.
func (e *estimator) coreThroughput(cc *config.Core, residents []int, extra int) float64 {
	ths := residents
	if extra >= 0 {
		e.ths = append(append(e.ths[:0], residents...), extra)
		ths = e.ths
	}
	k := len(ths)
	if k == 0 {
		return 0
	}
	if !e.smt {
		// Time sharing: the core delivers the average of its threads' solo
		// throughputs.
		var sum float64
		for _, t := range ths {
			sum += e.ipcOn[t][cc.Type]
		}
		return sum / float64(k)
	}
	coRunners := k
	timeShare := 1.0
	if k > cc.SMTContexts {
		coRunners = cc.SMTContexts
		timeShare = float64(cc.SMTContexts) / float64(k)
	}
	part := interval.Partition(*cc, coRunners)
	sh := interval.Shares{
		L1I:              float64(cc.L1I.SizeBytes) / float64(coRunners),
		L1D:              float64(cc.L1D.SizeBytes) / float64(coRunners),
		L2:               float64(cc.L2.SizeBytes) / float64(coRunners),
		LLC:              float64(config.LLCConfig().SizeBytes) / 8,
		MemLatencyCycles: 45 * cc.FrequencyGHz * 1.5,
	}
	if cap(e.ipcs) < k {
		e.ipcs = make([]float64, k)
	}
	ipcs := e.ipcs[:k]
	for i, t := range ths {
		p := e.prof[t][cc.Type]
		ipcs[i] = 1 / p.EvaluateData(cc, p.CoreTerms(cc, part, sh.L1I), sh).Total()
	}
	if coRunners > 1 {
		interval.ShareWidth(ipcs, cc.Width)
	}
	var sum float64
	for _, v := range ipcs {
		sum += v
	}
	return sum * timeShare * cc.FrequencyGHz
}
