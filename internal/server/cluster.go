package server

import (
	"context"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"smtflex/internal/cluster"
	"smtflex/internal/config"
	"smtflex/internal/study"
)

// The daemon's fabric-role plumbing: sweep routing through a coordinator,
// the worker-side cell route, the /debug/cluster surface, and the jittered
// Retry-After shared with the admission valve.

// role names the daemon's fabric role for /healthz and /debug/cluster.
func (s *Server) role() string {
	switch {
	case s.coord != nil:
		return "coordinator"
	case s.worker != nil:
		return "worker"
	default:
		return "solo"
	}
}

// sweepDesign routes a sweep through the fabric coordinator when one is
// configured, and through the local engine otherwise. Both paths honor the
// context's cancellation and progress hook, and produce bit-identical
// tables.
func (s *Server) sweepDesign(ctx context.Context, d config.Design, k study.Kind) (*study.Sweep, error) {
	if s.coord != nil {
		return s.coord.SweepDesign(ctx, d, k)
	}
	return s.study().SweepDesign(ctx, d, k)
}

// handleCell serves POST /cluster/v1/cell (worker role only): one sweep
// cell, evaluated on the worker's engine. It rides the
// shared endpoint() spine, so dispatches are admission-controlled, traced
// and metered like any client request — a saturated worker sheds
// coordinator dispatches with the same 503 + Retry-After it sheds clients
// with, which the coordinator understands.
func (s *Server) handleCell(ctx context.Context, r *http.Request) (any, error) {
	var req cluster.CellRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	t0 := time.Now()
	resp, err := s.worker.Evaluate(ctx, req)
	if err != nil {
		return nil, err
	}
	// The observability envelope is attached at the HTTP layer, where the
	// request's trace lives.
	cluster.AttachTrace(ctx, &resp, time.Since(t0).Nanoseconds())
	return resp, nil
}

// debugClusterResponse is the /debug/cluster body for non-coordinator roles
// (a coordinator dumps its full cluster.State).
type debugClusterResponse struct {
	Role string `json:"role"`
}

// handleDebugCluster dumps the fabric state: the coordinator's worker and
// counter snapshot, or just the role for a worker or solo daemon.
func (s *Server) handleDebugCluster(w http.ResponseWriter, r *http.Request) {
	if s.coord == nil {
		writeJSON(w, http.StatusOK, debugClusterResponse{Role: s.role()})
		return
	}
	s.coord.Probe(r.Context())
	writeJSON(w, http.StatusOK, s.coord.State())
}

// Retry-After jitter bounds: a shed client is told to come back after 1..3
// seconds, chosen per response. A constant hint would re-synchronize every
// shed client (and a whole shedding fleet's coordinators) into the next
// thundering herd; the spread breaks the lockstep.
const (
	retryAfterMin = 1
	retryAfterMax = 3
)

// retryAfter returns the jittered Retry-After header value in seconds.
func retryAfter() string {
	return strconv.Itoa(retryAfterMin + rand.IntN(retryAfterMax-retryAfterMin+1))
}
