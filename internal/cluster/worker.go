package cluster

import (
	"context"
	"fmt"

	"smtflex/internal/config"
	"smtflex/internal/study"
	"smtflex/internal/workload"
)

// Worker is the worker-side half of the fabric: it evaluates cells through
// the local engine. It keeps no result store of its own — the coordinator's
// fleet store answers every repeat before a cell is dispatched. The HTTP
// plumbing (admission, tracing, metrics) lives in internal/server, which
// mounts Evaluate under CellPath in worker role; this type is transport-free
// so tests can drive it directly.
type Worker struct {
	st *study.Study
}

// NewWorker wraps a study engine as a fabric worker.
func NewWorker(st *study.Study) *Worker {
	return &Worker{st: st}
}

// Evaluate computes one cell.
func (w *Worker) Evaluate(ctx context.Context, req CellRequest) (CellResponse, error) {
	if req.Fingerprint != "" && req.Fingerprint != w.st.Fingerprint() {
		return CellResponse{}, fmt.Errorf("%w: coordinator %q vs worker %q",
			ErrFingerprintMismatch, req.Fingerprint, w.st.Fingerprint())
	}
	if req.Design == "" {
		return CellResponse{}, fmt.Errorf("cluster: cell request missing design")
	}
	if len(req.Programs) == 0 {
		return CellResponse{}, fmt.Errorf("cluster: cell request has no programs")
	}
	d, err := config.DesignByName(req.Design, req.SMT)
	if err != nil {
		return CellResponse{}, err
	}
	if req.BandwidthGBps > 0 {
		d = d.WithBandwidth(req.BandwidthGBps)
	}
	r, err := w.st.EvaluateMixCtx(ctx, d, workload.Mix{ID: req.MixID, Programs: req.Programs})
	if err != nil {
		return CellResponse{}, err
	}
	return toWire(req.Key, r), nil
}
