package server

import (
	"fmt"
	"net/http"

	"smtflex/internal/cluster"
	"smtflex/internal/obs"
)

// The coordinator-only fleet observability surface: GET /debug/fleet merges
// every live worker's /metrics, /debug/timestack and /debug/machstats into
// one snapshot. A sweep's per-cell lifecycle lives in its stitched trace
// (/debug/traces/{id}).

// FleetResponse is the /debug/fleet body: the merged worker scrape plus the
// coordinator's own fleet-category time stacks (where distributed sweep wall
// time went: queue, dispatch wire, remote compute, retries, reassembly).
type FleetResponse struct {
	cluster.FleetSnapshot
	CoordinatorStacks []obs.TimeStack `json:"coordinator_stacks,omitempty"`
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	if s.coord == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "fleet aggregation is a coordinator surface (start with -role=coordinator -workers)"})
		return
	}
	snap := s.coord.FleetSnapshot(r.Context())
	var coordStacks []obs.TimeStack
	if s.col != nil {
		coordStacks = obs.FleetTimeStacks(s.col.Snapshots())
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, FleetResponse{FleetSnapshot: snap, CoordinatorStacks: coordStacks})
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, snap.RenderText())
		if len(coordStacks) > 0 {
			fmt.Fprint(w, "\ncoordinator fleet time stacks (per route):\n")
			fmt.Fprint(w, obs.RenderTimeStacksWith(coordStacks, obs.FleetCategories))
		}
	default:
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("unknown format %q (want json or text)", format)})
	}
}
