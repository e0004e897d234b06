// Package cpu implements the cycle-level core timing models: the out-of-order
// cores (big, medium) and the in-order core (small) of Table 1, with SMT via
// static ROB partitioning and round-robin fetch, and fine-grained
// multithreading for the in-order core.
//
// The models are event-driven timestamp simulators: every µop receives
// dispatch, issue, completion and commit timestamps derived from its
// dependencies and from structural resources (dispatch bandwidth, functional
// units, load/store ports, the ROB partition, the memory hierarchy). This is
// the same level of abstraction as the Sniper simulator used in the paper —
// cycle-approximate, not RTL — and is deterministic for a given trace.
package cpu

import (
	"fmt"

	"smtflex/internal/branch"
	"smtflex/internal/cache"
	"smtflex/internal/config"
	"smtflex/internal/isa"
	"smtflex/internal/machstats"
	"smtflex/internal/trace"
)

// MemorySystem is the chip-level memory hierarchy a core issues accesses to.
// Implementations combine per-core private caches with the shared LLC and
// DRAM. Latencies are returned in core cycles.
type MemorySystem interface {
	// Data performs a data access for coreID at time now and returns the
	// total load-to-use latency in cycles.
	Data(coreID int, addr uint64, kind cache.AccessKind, now float64) float64
	// Fetch performs an instruction fetch for coreID at time now and returns
	// the fetch latency in cycles beyond a first-level hit.
	Fetch(coreID int, addr uint64, now float64) float64
}

// MispredictPenalty is the front-end refill penalty after a branch
// misprediction, in cycles, on top of waiting for the branch to resolve.
const MispredictPenalty = 5

// BTBMissPenalty is the fetch bubble when a taken control transfer's target
// is absent from the branch target buffer (the front end cannot redirect
// until the target is computed), in cycles.
const BTBMissPenalty = 2

// depWindow is how far back register dependencies are tracked; the trace
// generator never emits longer distances.
const depWindow = 512

// Ideal flags selectively perfect parts of the machine; the profiler uses
// them to measure CPI components by successive idealization.
type Ideal struct {
	// Branch makes every branch correctly predicted.
	Branch bool
	// ICache makes every instruction fetch hit.
	ICache bool
	// DCache makes every data access an L1 hit.
	DCache bool
}

// ThreadStats accumulates per-hardware-thread activity.
type ThreadStats struct {
	Uops        uint64
	Loads       uint64
	Stores      uint64
	Branches    uint64
	Mispredicts uint64
	// FinishTime is the commit time of the last retired µop, in cycles.
	FinishTime float64
	// StartTime is the dispatch time of the first µop.
	StartTime float64
	// Stall attribution, in cycles (approximate — the timestamp model
	// attributes each µop's issue delay beyond its dispatch to the memory
	// hierarchy, and front-end redirects to branches and instruction fetch).
	MemStallCycles    float64
	BranchStallCycles float64
	FetchStallCycles  float64
}

// CPI returns cycles per µop over the thread's active interval.
func (s ThreadStats) CPI() float64 {
	if s.Uops == 0 {
		return 0
	}
	return (s.FinishTime - s.StartTime) / float64(s.Uops)
}

// MemStallCPI returns the attributed memory-stall cycles per µop.
func (s ThreadStats) MemStallCPI() float64 {
	if s.Uops == 0 {
		return 0
	}
	return s.MemStallCycles / float64(s.Uops)
}

// BranchStallCPI returns the attributed branch-redirect cycles per µop.
func (s ThreadStats) BranchStallCPI() float64 {
	if s.Uops == 0 {
		return 0
	}
	return s.BranchStallCycles / float64(s.Uops)
}

// FetchStallCPI returns the attributed instruction-fetch cycles per µop.
func (s ThreadStats) FetchStallCPI() float64 {
	if s.Uops == 0 {
		return 0
	}
	return s.FetchStallCycles / float64(s.Uops)
}

// Stack returns the thread's measured CPI decomposition in machstats'
// canonical component vocabulary. The cycle engine's memory-stall attribution
// is level-blind, so the stack has four components (base, branch, icache,
// mem) with base as the residual — by construction the components sum to
// CPI() up to floating-point rounding, the conservation property the
// counter-conservation test checks. A thread that retired nothing returns an
// all-zero stack (every accessor guards the division).
func (s ThreadStats) Stack() []machstats.Component {
	br := s.BranchStallCPI()
	ic := s.FetchStallCPI()
	mem := s.MemStallCPI()
	return []machstats.Component{
		{Name: machstats.CompBase, CPI: s.CPI() - br - ic - mem},
		{Name: machstats.CompBranch, CPI: br},
		{Name: machstats.CompICache, CPI: ic},
		{Name: machstats.CompMem, CPI: mem},
	}
}

// IPC returns µops per cycle.
func (s ThreadStats) IPC() float64 {
	c := s.CPI()
	if c == 0 {
		return 0
	}
	return 1 / c
}

// threadCtx is one hardware thread context.
type threadCtx struct {
	reader trace.Reader
	active bool
	// seq is the number of µops dispatched.
	seq uint64
	// doneAt[i%depWindow] is the completion time of µop i.
	doneAt [depWindow]float64
	// commitAt[i%robCap] is the commit time of µop i; sized to the maximum
	// partition so repartitioning never reallocates.
	commitAt []float64
	// frontAvail is the earliest cycle the front end can deliver the next µop.
	frontAvail float64
	// lastCommit is the commit time of the previous µop (in-order commit).
	lastCommit float64
	// lastIssue is the previous issue time (in-order issue for small cores).
	lastIssue float64
	// fetchBlock is the current I-cache block.
	fetchBlock uint64
	pred       branch.Predictor
	btb        *branch.BTB
	// pendingCtl is the PC of the previous µop when it was a taken control
	// transfer; the next µop's PC is its target, checked against the BTB.
	pendingCtl    uint64
	hasPendingCtl bool
	stats         ThreadStats
}

// Core is one core with up to SMTContexts hardware threads.
type Core struct {
	cfg    config.Core
	id     int
	mem    MemorySystem
	ideal  Ideal
	smtOn  bool
	thread []*threadCtx

	// dispatchFree is the next cycle fraction at which a dispatch slot is
	// available; each µop consumes 1/width.
	dispatchFree float64
	// Functional-unit bandwidth watermarks, one per unit group. Contention
	// is modelled as bandwidth in processing-order time rather than as
	// future reservations: a µop whose operands are ready far in the future
	// must not block the unit for other (SMT) µops issuing earlier.
	aluClock, lsClock, mdClock, fpClock float64
	aluPerOp, lsPerOp, mdPerOp, fpPerOp float64
}

// NewCore builds a core. mem must not be nil; cfg must validate. Both
// failures return errors rather than panicking, so a malformed design point
// fails its own evaluation and nothing else.
func NewCore(cfg config.Core, id int, mem MemorySystem, smtOn bool, ideal Ideal) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if mem == nil {
		return nil, fmt.Errorf("cpu: nil memory system for core %d", id)
	}
	c := &Core{
		cfg:      cfg,
		id:       id,
		mem:      mem,
		ideal:    ideal,
		smtOn:    smtOn,
		aluPerOp: 1 / float64(cfg.IntALUs),
		lsPerOp:  1 / float64(cfg.LoadStorePorts),
		mdPerOp:  1 / float64(cfg.MulDivUnits),
		fpPerOp:  1 / float64(cfg.FPUnits),
	}
	return c, nil
}

// Config returns the core configuration.
func (c *Core) Config() config.Core { return c.cfg }

// ID returns the core's chip-wide identifier.
func (c *Core) ID() int { return c.id }

// AttachThread binds a trace to the next free hardware context and returns
// the context index. It fails when all contexts are occupied (or one context
// without SMT).
func (c *Core) AttachThread(r trace.Reader) (int, error) {
	limit := c.cfg.SMTContexts
	if !c.smtOn {
		limit = 1
	}
	if len(c.thread) >= limit {
		return -1, fmt.Errorf("cpu: core %d has no free context (limit %d)", c.id, limit)
	}
	robCap := c.cfg.ROBSize
	if robCap == 0 {
		robCap = 2 * c.cfg.Width // in-order: small commit window
	}
	// A bimodal predictor reaches steady state within the simulated window;
	// with gshare the history randomization of synthetic traces would leave
	// the tables undertrained at SimPoint-scale run lengths.
	t := &threadCtx{
		reader:   r,
		active:   true,
		commitAt: make([]float64, robCap),
		pred:     branch.NewBimodal(13),
		btb:      branch.NewBTB(10),
	}
	c.thread = append(c.thread, t)
	return len(c.thread) - 1, nil
}

// NumThreads returns the number of attached threads.
func (c *Core) NumThreads() int { return len(c.thread) }

// activeThreads counts threads still running.
func (c *Core) activeThreads() int {
	n := 0
	for _, t := range c.thread {
		if t.active {
			n++
		}
	}
	return n
}

// robPartition is the per-thread ROB share under static partitioning.
func (c *Core) robPartition() int {
	n := c.activeThreads()
	if n == 0 {
		n = 1
	}
	p := c.cfg.ROBSize / n
	if p < c.cfg.Width {
		p = c.cfg.Width
	}
	return p
}

// ThreadTime returns the earliest time context ti can dispatch its next
// µop: the front-end clock, the shared dispatch bandwidth clock and the
// thread's ROB-partition gate. The chip scheduler advances the globally
// least-advanced thread first; including the ROB gate here is essential for
// SMT, otherwise a memory-stalled thread would be stepped anyway and its
// far-future dispatch reservation would drag the shared dispatch clock
// forward, starving its co-runners.
func (c *Core) ThreadTime(ti int) float64 {
	t := c.thread[ti]
	tm := t.frontAvail
	if c.dispatchFree > tm {
		tm = c.dispatchFree
	}
	if gate := c.robGate(t); gate > tm {
		tm = gate
	}
	return tm
}

// robGate returns the commit time of the µop whose ROB slot the thread's
// next µop needs, or 0 when the partition has room.
func (c *Core) robGate(t *threadCtx) float64 {
	robCap := len(t.commitAt)
	part := robCap
	if c.cfg.OutOfOrder {
		part = c.robPartition()
		if part > robCap {
			part = robCap
		}
	}
	if t.seq < uint64(part) {
		return 0
	}
	return t.commitAt[(t.seq-uint64(part))%uint64(robCap)]
}

// ThreadStats returns statistics for context ti.
func (c *Core) ThreadStats(ti int) ThreadStats { return c.thread[ti].stats }

// ThreadUops returns ThreadStats(ti).Uops without copying the whole struct.
func (c *Core) ThreadUops(ti int) uint64 { return c.thread[ti].stats.Uops }

// ThreadDone reports whether the context was deactivated.
func (c *Core) ThreadDone(ti int) bool { return !c.thread[ti].active }

// Deactivate marks a context finished; its ROB share is redistributed.
func (c *Core) Deactivate(ti int) { c.thread[ti].active = false }

// bucketIssue charges one µop against a unit group's bandwidth watermark
// and returns its issue time. The watermark never falls behind now (unused
// slots expire) and advances by occPerOp per µop; a µop whose operands are
// ready beyond the watermark issues at operand-ready time without blocking
// the group — bandwidth is consumed in processing order, future slots are
// never reserved (essential for SMT fairness).
func bucketIssue(clock *float64, now, ready, occPerOp float64) float64 {
	if *clock < now {
		*clock = now
	}
	issue := ready
	if *clock > issue {
		issue = *clock
	}
	*clock += occPerOp
	return issue
}

// fuIssue dispatches the µop to its functional-unit group.
func (c *Core) fuIssue(class isa.Class, now, ready float64) float64 {
	switch class {
	case isa.IntMul, isa.IntDiv:
		occ := c.mdPerOp
		if !class.Pipelined() {
			occ *= float64(class.Latency())
		}
		return bucketIssue(&c.mdClock, now, ready, occ)
	case isa.FpAdd, isa.FpMul, isa.FpDiv:
		occ := c.fpPerOp
		if !class.Pipelined() {
			occ *= float64(class.Latency())
		}
		return bucketIssue(&c.fpClock, now, ready, occ)
	case isa.Load, isa.Store:
		return bucketIssue(&c.lsClock, now, ready, c.lsPerOp)
	default:
		return bucketIssue(&c.aluClock, now, ready, c.aluPerOp)
	}
}

// StepThread dispatches and times one µop for context ti. It returns the
// µop's commit time.
func (c *Core) StepThread(ti int) float64 {
	t := c.thread[ti]
	u := t.reader.Next()

	if t.stats.Uops == 0 {
		t.stats.StartTime = t.frontAvail
	}

	// --- Front end: BTB + I-cache + dispatch bandwidth ---
	if t.hasPendingCtl {
		t.hasPendingCtl = false
		if !c.ideal.Branch && !t.btb.Lookup(t.pendingCtl, u.PC) {
			t.frontAvail += BTBMissPenalty
			t.stats.FetchStallCycles += BTBMissPenalty
		}
	}
	blk := cache.BlockAddr(u.PC)
	if blk != t.fetchBlock {
		t.fetchBlock = blk
		if !c.ideal.ICache {
			extra := c.mem.Fetch(c.id, u.PC, t.frontAvail)
			t.frontAvail += extra
			t.stats.FetchStallCycles += extra
		}
	}
	dispatch := t.frontAvail
	if c.dispatchFree > dispatch {
		dispatch = c.dispatchFree
	}

	// --- ROB partition gate (OoO) / issue-order gate (in-order) ---
	if gate := c.robGate(t); gate > dispatch {
		dispatch = gate
	}
	robCap := len(t.commitAt)
	c.dispatchFree = dispatch + 1/float64(c.cfg.Width)

	// --- Register dependencies ---
	ready := dispatch
	for _, d := range u.SrcDist {
		if d <= 0 || uint64(d) > t.seq || d >= depWindow {
			continue
		}
		src := t.doneAt[(t.seq-uint64(d))%depWindow]
		if src > ready {
			ready = src
		}
	}

	// --- In-order issue constraint ---
	if !c.cfg.OutOfOrder && t.lastIssue > ready {
		ready = t.lastIssue
	}

	// --- Functional unit ---
	issue := c.fuIssue(u.Class, dispatch, ready)
	if !c.cfg.OutOfOrder {
		t.lastIssue = issue
	}

	// --- Execution latency ---
	lat := float64(u.Class.Latency())
	switch u.Class {
	case isa.Load:
		t.stats.Loads++
		if c.ideal.DCache {
			lat = float64(c.cfg.L1D.LatencyCycles)
		} else {
			lat = c.mem.Data(c.id, u.Addr, cache.Read, issue)
			if extra := lat - float64(c.cfg.L1D.LatencyCycles); extra > 0 {
				t.stats.MemStallCycles += extra
			}
		}
	case isa.Store:
		t.stats.Stores++
		// Stores retire through a write buffer: the µop completes quickly,
		// but the access still updates cache state and consumes bandwidth.
		if !c.ideal.DCache {
			c.mem.Data(c.id, u.Addr, cache.Write, issue)
		}
		lat = 1
	}
	done := issue + lat
	t.doneAt[t.seq%depWindow] = done

	if u.Class.IsControl() && (u.Class == isa.Jump || u.Taken) {
		t.pendingCtl = u.PC
		t.hasPendingCtl = true
	}

	// --- Branch resolution ---
	if u.Class == isa.Branch {
		t.stats.Branches++
		misp := false
		if !c.ideal.Branch {
			pred := t.pred.Predict(u.PC)
			t.pred.Update(u.PC, u.Taken)
			misp = pred != u.Taken
		}
		if misp {
			t.stats.Mispredicts++
			redirect := done + MispredictPenalty
			if redirect > t.frontAvail {
				t.stats.BranchStallCycles += redirect - t.frontAvail
				t.frontAvail = redirect
			}
		}
	}

	// --- In-order commit ---
	commit := done
	if t.lastCommit > commit {
		commit = t.lastCommit
	}
	commit += 1 / float64(c.cfg.Width)
	t.lastCommit = commit
	t.commitAt[t.seq%uint64(robCap)] = commit
	t.seq++

	t.stats.Uops++
	t.stats.FinishTime = commit
	return commit
}
