package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"smtflex/internal/cluster"
	"smtflex/internal/config"
	"smtflex/internal/workload"
)

// TestRetryAfterJitterBounds pins the shed hint's range: always within
// [retryAfterMin, retryAfterMax], and actually jittered (more than one
// distinct value over many draws — a constant hint would re-synchronize
// shed clients into the next thundering herd).
func TestRetryAfterJitterBounds(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		v := retryAfter()
		secs, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("retryAfter() = %q, not an integer", v)
		}
		if secs < retryAfterMin || secs > retryAfterMax {
			t.Fatalf("retryAfter() = %d, want within [%d, %d]", secs, retryAfterMin, retryAfterMax)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Errorf("retryAfter() produced a single value over 1000 draws; want jitter")
	}
}

// TestWorkerRoleServesCells drives the worker-role daemon end to end: the
// cell route evaluates through the shared endpoint spine, healthz reports
// the role, /metrics counts the served cells, and a mismatched fleet
// fingerprint is refused with 409.
func TestWorkerRoleServesCells(t *testing.T) {
	wk := cluster.NewWorker(sharedSim().Study())
	_, ts := newTestServer(t, Config{ClusterWorker: wk})

	st := sharedSim().Study()
	req := fmt.Sprintf(`{"key":"k1","fingerprint":%q,"design":"4B","smt":true,"kind":"homogeneous","n":2,"mix_id":"hom-mcf-2","programs":["mcf","mcf"]}`, st.Fingerprint())
	code, body, _ := postJSON(t, ts.URL+cluster.CellPath, req)
	if code != http.StatusOK {
		t.Fatalf("cell: code=%d body=%s", code, body)
	}
	var resp cluster.CellResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode cell response: %v", err)
	}
	if resp.STP <= 0 || len(resp.Threads) != 2 {
		t.Errorf("cell response: STP=%g threads=%d, want positive STP and 2 threads", resp.STP, len(resp.Threads))
	}

	// The engine result must match a direct evaluation bit-for-bit.
	d, _ := config.DesignByName("4B", true)
	want, err := st.EvaluateMixCtx(context.Background(), d, workload.Mix{ID: "hom-mcf-2", Programs: []string{"mcf", "mcf"}})
	if err != nil {
		t.Fatalf("direct evaluation: %v", err)
	}
	if resp.STP != want.STP || resp.ANTT != want.ANTT || resp.Watts != want.Watts {
		t.Errorf("cell response differs from direct evaluation: got STP=%v ANTT=%v, want STP=%v ANTT=%v",
			resp.STP, resp.ANTT, want.STP, want.ANTT)
	}

	// Fingerprint mismatch is terminal: 409.
	bad := `{"key":"k2","fingerprint":"bogus","design":"4B","smt":true,"programs":["mcf"]}`
	code, body, _ = postJSON(t, ts.URL+cluster.CellPath, bad)
	if code != http.StatusConflict {
		t.Fatalf("mismatched fingerprint: code=%d body=%s, want 409", code, body)
	}

	// Role surfaces.
	code, body = getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), `"role":"worker"`) {
		t.Errorf("healthz: code=%d body=%s, want role=worker", code, body)
	}
	code, body = getJSON(t, ts.URL+"/debug/cluster")
	if code != http.StatusOK || !strings.Contains(string(body), `"role":"worker"`) {
		t.Errorf("/debug/cluster: code=%d body=%s, want role=worker", code, body)
	}
	code, body = getJSON(t, ts.URL+"/metrics")
	if code != http.StatusOK || !strings.Contains(string(body), `smtflexd_requests_total{route="/cluster/v1/cell",code="200"} 1`) {
		t.Errorf("/metrics does not count the one served cell (code=%d)", code)
	}
}

// TestCoordinatorRoleFansOut stands up a worker daemon and a coordinator
// daemon, runs a sweep through the coordinator's public API, and asserts
// the response is byte-identical to a solo daemon's — plus the coordinator
// surfaces: healthz worker liveness, /debug/cluster, fleet metrics.
func TestCoordinatorRoleFansOut(t *testing.T) {
	_, workerTS := newTestServer(t, Config{ClusterWorker: cluster.NewWorker(sharedSim().Study())})
	coord, err := cluster.NewCoordinator(sharedSim().Study(), []string{workerTS.URL}, cluster.Options{Logger: quietLogger()})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	_, coordTS := newTestServer(t, Config{Coordinator: coord})
	_, soloTS := newTestServer(t, Config{})

	const body = `{"design":"4B","kind":"heterogeneous"}`
	codeC, gotC, _ := postJSON(t, coordTS.URL+"/v1/sweep", body)
	codeS, gotS, _ := postJSON(t, soloTS.URL+"/v1/sweep", body)
	if codeC != http.StatusOK || codeS != http.StatusOK {
		t.Fatalf("sweep: coordinator=%d solo=%d", codeC, codeS)
	}
	if string(gotC) != string(gotS) {
		t.Fatal("coordinator sweep response differs from solo daemon's")
	}

	code, hb := getJSON(t, coordTS.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(hb), `"role":"coordinator"`) || !strings.Contains(string(hb), `"alive":true`) {
		t.Errorf("coordinator healthz: code=%d body=%s, want role and live worker", code, hb)
	}
	code, db := getJSON(t, coordTS.URL+"/debug/cluster")
	if code != http.StatusOK || !strings.Contains(string(db), `"dispatched"`) {
		t.Errorf("/debug/cluster: code=%d body=%s", code, db)
	}
	code, mb := getJSON(t, coordTS.URL+"/metrics")
	if code != http.StatusOK ||
		!strings.Contains(string(mb), "smtflexd_cluster_dispatched_total") ||
		!strings.Contains(string(mb), `smtflexd_memo_hits_total{cache="fleet"}`) {
		t.Errorf("/metrics missing fleet series (code=%d)", code)
	}
}

// TestConfigRejectsDualRole pins the one-role-per-daemon contract.
func TestConfigRejectsDualRole(t *testing.T) {
	wk := cluster.NewWorker(sharedSim().Study())
	coord, err := cluster.NewCoordinator(sharedSim().Study(), []string{"http://x:1"}, cluster.Options{Logger: quietLogger()})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	if _, err := New(Config{Sim: sharedSim(), Coordinator: coord, ClusterWorker: wk}); err == nil {
		t.Fatal("Config with both roles accepted, want error")
	}
}

// TestSoloDebugCluster: the surface exists in every role.
func TestSoloDebugCluster(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := getJSON(t, ts.URL+"/debug/cluster")
	if code != http.StatusOK || !strings.Contains(string(body), `"role":"solo"`) {
		t.Errorf("/debug/cluster: code=%d body=%s, want solo role", code, body)
	}
}
