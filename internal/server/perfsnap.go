package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"smtflex/internal/machstats"
	"smtflex/internal/perfdiff"
)

// The perf-snapshot surfaces: GET /debug/perfsnap captures the daemon's
// current performance state as a versioned perfdiff bundle (?pprof=1 attaches
// heap + CPU profiles), and StartPerfLoops runs the optional snap-on-drift
// watcher that auto-dumps a snapshot beside the journal when engine
// histograms shift past tolerance versus a committed baseline.

// perf bundles the Server's performance-observability state.
type perf struct {
	baseline *perfdiff.Snapshot // nil = drift watcher off
	dumpDir  string
	drifts   atomic.Int64 // smtflexd_perf_drift_total
	dumps    atomic.Int64 // drift snapshots written
	dumpErrs atomic.Int64
}

// maxDriftDumps bounds how many drift snapshots one daemon writes: drift that
// persists re-fires every check, and the disk should hold the first captures
// (closest to the transition), not an unbounded stream of identical ones.
const maxDriftDumps = 16

// driftInterval is how often the drift watcher compares live histograms
// against the baseline.
const driftInterval = 15 * time.Second

// driftThresholds trips on a sustained ~1.5x shift in any watched quantile:
// loose enough to ignore warmup, tight enough that a solver suddenly
// iterating twice as long gets its snapshot captured. The absolute floor
// keeps microsecond queue jitter on an idle daemon from tripping it.
var driftThresholds = perfdiff.Thresholds{QuantilePct: 50, QuantileMin: 1e-3}

// perfHistograms snapshots the engine histograms in canonical order.
func (s *Server) perfHistograms() []perfdiff.HistogramState {
	return []perfdiff.HistogramState{
		perfdiff.HistState(perfdiff.HistSolverIterations, s.solverIters.Snapshot()),
		perfdiff.HistState(perfdiff.HistPoolQueueSeconds, s.poolQueue.Snapshot()),
	}
}

// PerfSnapshot captures the daemon's performance state. On a coordinator the
// snapshot is fleet-wide: the merged worker scrape (the same path as
// /debug/fleet) contributes the fleet's per-route time stacks. Capture only
// reads already-collected state — it never perturbs the engine.
func (s *Server) PerfSnapshot(ctx context.Context) *perfdiff.Snapshot {
	opts := perfdiff.CaptureOpts{Role: s.role()}
	if s.col != nil {
		opts.Traces = s.col.Snapshots()
	}
	if machstats.Enabled() {
		mach := machstats.Default().Snapshot()
		opts.Mach = &mach
	}
	opts.Histograms = s.perfHistograms()
	counters := s.study().CacheCounters()
	if s.coord != nil {
		counters = append(counters, s.coord.CacheCounters()...)
	}
	if s.worker != nil {
		counters = append(counters, s.worker.CacheCounters()...)
	}
	opts.Caches = counters
	if s.coord != nil {
		fleet := s.coord.FleetSnapshot(ctx)
		opts.FleetStacks = fleet.TimeStacks
	}
	return perfdiff.Capture(opts)
}

func (s *Server) handlePerfsnap(w http.ResponseWriter, r *http.Request) {
	snap := s.PerfSnapshot(r.Context())
	if r.URL.Query().Get("pprof") == "1" {
		// Heap is instant; CPU needs a window (?profile_ms=, default 1s,
		// capped; 0 = heap only). A failed CPU capture — another profiler
		// already running — degrades to heap-only rather than failing the
		// whole snapshot.
		if hp, err := perfdiff.CaptureHeapProfile(); err == nil {
			snap.Profiles = append(snap.Profiles, hp)
		}
		ms := int64(1000)
		if raw := r.URL.Query().Get("profile_ms"); raw != "" {
			v, err := strconv.ParseInt(raw, 10, 64)
			if err != nil || v < 0 {
				writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "invalid profile_ms " + strconv.Quote(raw)})
				return
			}
			ms = v
		}
		if ms > 30_000 {
			ms = 30_000
		}
		if ms > 0 {
			if cp, err := perfdiff.CaptureCPUProfile(time.Duration(ms) * time.Millisecond); err == nil {
				snap.Profiles = append(snap.Profiles, cp)
			} else {
				s.log.Warn("perfsnap cpu profile skipped", "err", err)
			}
		}
	}
	writeJSON(w, http.StatusOK, snap)
}

// StartPerfLoops launches the drift watcher when a PerfBaseline is armed: it
// runs checkDrift every driftInterval until ctx is cancelled. Safe to call
// once at startup; a daemon without a baseline starts nothing.
func (s *Server) StartPerfLoops(ctx context.Context) {
	if s.perf.baseline == nil {
		return
	}
	go func() {
		t := time.NewTicker(driftInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				s.checkDrift(ctx)
			}
		}
	}()
	s.log.Info("perf drift watcher armed", "interval", driftInterval, "dump_dir", s.perf.dumpDir)
}

// checkDrift compares live engine histograms against the armed baseline.
// Every drifted quantile bumps smtflexd_perf_drift_total; the first
// maxDriftDumps drift events also capture a full snapshot next to the journal
// (atomic temp+rename, like flight-recorder dumps) so the postmortem has the
// state from the moment of the shift, not from whenever someone noticed.
func (s *Server) checkDrift(ctx context.Context) {
	var drifted []string
	for _, d := range perfdiff.DiffQuantiles(s.perf.baseline.Histograms, s.perfHistograms(), driftThresholds) {
		if d.Exceeds {
			drifted = append(drifted, fmt.Sprintf("%s %s: %.6g -> %.6g", d.Group, d.Metric, d.Baseline, d.Current))
		}
	}
	if len(drifted) == 0 {
		return
	}
	s.perf.drifts.Add(int64(len(drifted)))
	s.log.Warn("perf drift vs baseline", "drifts", strings.Join(drifted, "; "))
	if s.perf.dumps.Load() >= maxDriftDumps {
		return
	}
	path, err := s.PerfSnapshot(ctx).WriteDir(s.perf.dumpDir, "perfdrift")
	if err != nil {
		s.perf.dumpErrs.Add(1)
		s.log.Error("perf drift snapshot failed", "err", err)
		return
	}
	s.perf.dumps.Add(1)
	s.log.Warn("perf drift snapshot written", "path", path)
}

// timestackQuantiles summarizes the engine histograms for /debug/timestack:
// the quantile view of the same state the snapshot carries in full.
type HistQuantiles struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

func (s *Server) timestackQuantiles() []HistQuantiles {
	out := make([]HistQuantiles, 0, 2)
	for _, h := range s.perfHistograms() {
		snap := h.Snapshot()
		out = append(out, HistQuantiles{
			Name:  h.Name,
			Count: h.Count,
			P50:   snap.Quantile(0.50),
			P95:   snap.Quantile(0.95),
			P99:   snap.Quantile(0.99),
		})
	}
	return out
}
