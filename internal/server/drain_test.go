package server

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"smtflex/internal/cluster"
)

// TestDrainRefusesNewWork pins the graceful-drain contract: after
// BeginDrain, new engine-backed requests — including a coordinator's cell
// dispatches — get 503 with the cluster draining header (so a coordinator
// reroutes instead of burning its shed budget), /healthz turns 503
// "draining", and the drain surfaces on /metrics.
func TestDrainRefusesNewWork(t *testing.T) {
	wk := cluster.NewWorker(sharedSim().Study())
	s, ts := newTestServer(t, Config{ClusterWorker: wk})

	// Before draining: a cell evaluates normally.
	req := fmt.Sprintf(`{"key":"k1","fingerprint":%q,"design":"4B","smt":true,"kind":"homogeneous","n":1,"mix_id":"hom-mcf-1","programs":["mcf"]}`, sharedSim().Study().Fingerprint())
	if code, body, _ := postJSON(t, ts.URL+cluster.CellPath, req); code != http.StatusOK {
		t.Fatalf("pre-drain cell: code=%d body=%s", code, body)
	}

	s.BeginDrain()
	if !s.Draining() {
		t.Fatal("Draining() = false after BeginDrain")
	}

	code, body, hdr := postJSON(t, ts.URL+cluster.CellPath, req)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining cell dispatch: code=%d body=%s, want 503", code, body)
	}
	if hdr.Get(cluster.DrainingHeader) == "" {
		t.Error("draining 503 missing the draining header")
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("draining 503 missing Retry-After")
	}

	// Sweeps are refused the same way (shared endpoint spine).
	if code, _, hdr := postJSON(t, ts.URL+"/v1/sweep", `{"design":"4B"}`); code != http.StatusServiceUnavailable || hdr.Get(cluster.DrainingHeader) == "" {
		t.Errorf("draining sweep: code=%d draining-header=%q, want 503 with header", code, hdr.Get(cluster.DrainingHeader))
	}

	// Healthz flips so load balancers and coordinator probes steer away.
	code, hb := getJSON(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(hb), `"status":"draining"`) {
		t.Errorf("draining healthz: code=%d body=%s, want 503 draining", code, hb)
	}

	// Metrics surface the drain; scraping keeps working while draining.
	code, mb := getJSON(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics while draining: code=%d", code)
	}
	if !strings.Contains(string(mb), "smtflexd_draining 1") {
		t.Error("metrics missing smtflexd_draining 1")
	}
	if !strings.Contains(string(mb), "smtflexd_drained_total 2") {
		t.Error("metrics missing smtflexd_drained_total 2")
	}
	if s.Inflight() != 0 {
		t.Errorf("Inflight() = %d with no requests executing, want 0", s.Inflight())
	}
}

// TestCoordinatorMetricsIntegritySeries: the integrity/durability series are
// present on a coordinator daemon's /metrics from the start (zero-valued
// counters still scrape), and healthz carries breaker state per worker.
func TestCoordinatorMetricsIntegritySeries(t *testing.T) {
	_, workerTS := newTestServer(t, Config{ClusterWorker: cluster.NewWorker(sharedSim().Study())})
	coord, err := cluster.NewCoordinator(sharedSim().Study(), []string{workerTS.URL}, cluster.Options{Logger: quietLogger()})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	_, coordTS := newTestServer(t, Config{Coordinator: coord})

	code, mb := getJSON(t, coordTS.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: code=%d", code)
	}
	for _, series := range []string{
		"smtflexd_cluster_integrity_failures_total",
		"smtflexd_cluster_audits_total",
		"smtflexd_cluster_audit_divergence_total",
		"smtflexd_cluster_drains_total",
		"smtflexd_cluster_journal_cells",
		"smtflexd_cluster_journal_replayed_total",
		"smtflexd_cluster_journal_dropped_total",
		"smtflexd_cluster_journal_errors_total",
	} {
		if !strings.Contains(string(mb), series) {
			t.Errorf("/metrics missing %s", series)
		}
	}

	code, hb := getJSON(t, coordTS.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(hb), `"breaker":"closed"`) {
		t.Errorf("healthz: code=%d body=%s, want per-worker breaker state", code, hb)
	}
}
