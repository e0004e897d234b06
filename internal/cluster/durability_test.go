package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"smtflex/internal/faults"
	"smtflex/internal/journal"
	"smtflex/internal/study"
)

// openTestJournal opens dir as a journal under the shared engine's
// fingerprint, the way the daemon does.
func openTestJournal(t *testing.T, dir string) *journal.Journal {
	t.Helper()
	j, _, err := journal.Open(dir, sharedSim().Study().Fingerprint())
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	return j
}

// awaitSweepsSettled waits until c has no active sweep. A caller that
// abandons SweepDesign returns at once, while the shared compute still
// finishes, and journals, the cells it already had in flight.
func awaitSweepsSettled(t *testing.T, c *Coordinator) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		active := false
		for _, m := range c.FlightList() {
			active = active || m.Active
		}
		if !active {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned sweep still active after 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosWireCorruptionQuarantined is the integrity contract test: cell
// responses corrupted on the wire — one bit flipped, torn in half, or
// duplicated — must be quarantined (counted, never stored, never assembled)
// and the cell re-dispatched, with the final table still byte-identical.
func TestChaosWireCorruptionQuarantined(t *testing.T) {
	want := localSweepJSON(t)
	for _, mode := range []faults.Mode{faults.ModeBitflip, faults.ModeTruncate, faults.ModeDuplicate} {
		t.Run(string(mode), func(t *testing.T) {
			faults.Reset()
			t.Cleanup(faults.Reset)
			w1 := newWorkerServer(t, nil)
			w2 := newWorkerServer(t, nil)
			c := newTestCoordinator(t, []string{w1.URL, w2.URL}, testOptions())
			faults.Enable(faults.SiteWire, faults.Injection{Mode: mode, Count: 2})
			got := fleetSweepJSON(t, c)
			if string(got) != string(want) {
				t.Fatal("sweep through wire corruption differs from single-process table")
			}
			st := c.State()
			if st.IntegrityFailures == 0 {
				t.Error("expected quarantined responses to be counted")
			}
			if st.Retries == 0 {
				t.Error("expected quarantined cells to be re-dispatched")
			}
		})
	}
}

// TestCoordinatorCrashResumeByteIdentical is the durability contract test at
// fleet sizes 1, 2 and 4: a sweep interrupted mid-flight leaves its
// completed cells in the write-ahead journal; a fresh coordinator (the
// restarted process) replays them into its store and dispatches only the
// remainder — and the resumed table is byte-identical to the uninterrupted
// single-process run.
func TestCoordinatorCrashResumeByteIdentical(t *testing.T) {
	want := localSweepJSON(t)
	for _, nWorkers := range []int{1, 2, 4} {
		var urls []string
		for i := 0; i < nWorkers; i++ {
			urls = append(urls, newWorkerServer(t, nil).URL)
		}
		dir := t.TempDir()

		// First incarnation: cancel the sweep once a handful of cells have
		// completed (each journaled before its progress tick fires).
		opts := testOptions()
		opts.Journal = openTestJournal(t, dir)
		c1 := newTestCoordinator(t, urls, opts)
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		ctx = study.WithProgress(ctx, func(done, total int) {
			if done >= 6 {
				once.Do(cancel)
			}
		})
		if _, err := c1.SweepDesign(ctx, testDesign(), study.Heterogeneous); err == nil {
			t.Fatalf("fleet of %d: interrupted sweep succeeded, want cancellation", nWorkers)
		}
		cancel()
		awaitSweepsSettled(t, c1)
		journaled := opts.Journal.Len()
		if journaled < 6 {
			t.Fatalf("fleet of %d: %d cells journaled before cancel, want >= 6", nWorkers, journaled)
		}

		// Second incarnation: a brand-new coordinator over a reopened
		// journal, as after kill -9 + restart.
		opts2 := testOptions()
		opts2.Journal = openTestJournal(t, dir)
		c2 := newTestCoordinator(t, urls, opts2)
		st := c2.State()
		if st.JournalReplayed != journaled || st.JournalDropped != 0 {
			t.Fatalf("fleet of %d: replayed %d dropped %d, want %d and 0",
				nWorkers, st.JournalReplayed, st.JournalDropped, journaled)
		}
		got := fleetSweepJSON(t, c2)
		if string(got) != string(want) {
			t.Fatalf("fleet of %d: resumed sweep differs from single-process table", nWorkers)
		}
		st = c2.State()
		// Every journaled cell must be served from the replayed store,
		// not re-dispatched.
		if st.StoreHits != int64(journaled) {
			t.Errorf("fleet of %d: resumed sweep store hits = %d, want %d",
				nWorkers, st.StoreHits, journaled)
		}
		total := int64(study.MaxThreads * 2) // 2 mixes per thread count
		if st.Dispatched+st.Fallbacks < total-int64(journaled) || st.Dispatched > total {
			t.Errorf("fleet of %d: resumed sweep dispatched %d (+%d fallbacks) of %d with %d journaled",
				nWorkers, st.Dispatched, st.Fallbacks, total, journaled)
		}
	}
}

// TestCoordinatorReplayRejectsTamperedJournal: a journal record whose
// payload passes the journal's at-rest digest but fails the wire layer's
// canonical integrity check (here: no cell digest at all) must be dropped at
// replay, never seeded into the store.
func TestCoordinatorReplayRejectsTamperedJournal(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	key := strings.Repeat("ab", 32)
	payload, err := json.Marshal(CellResponse{Key: key, STP: 3.14})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	opts.Journal = openTestJournal(t, dir)
	c := newTestCoordinator(t, []string{newWorkerServer(t, nil).URL}, opts)
	st := c.State()
	if st.JournalReplayed != 0 || st.JournalDropped != 1 {
		t.Fatalf("replayed %d dropped %d, want 0 and 1", st.JournalReplayed, st.JournalDropped)
	}
	if _, ok := c.store.Cached(key); ok {
		t.Fatal("tampered record reached the fleet store")
	}
}

// lyingWorkerServer wraps a worker so every cell response is silently wrong
// — the result perturbed and the digest recomputed to be self-consistent.
// Per-cell integrity checks cannot catch it; only an audit against an
// independent worker can.
func lyingWorkerServer(t *testing.T) *httptest.Server {
	t.Helper()
	return newWorkerServer(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if !strings.HasPrefix(r.URL.Path, CellPath) {
				next.ServeHTTP(rw, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			if rec.Code != http.StatusOK {
				for k, v := range rec.Header() {
					rw.Header()[k] = v
				}
				rw.WriteHeader(rec.Code)
				rw.Write(rec.Body.Bytes()) //nolint:errcheck
				return
			}
			var resp CellResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Errorf("lying worker: %v", err)
				return
			}
			resp.STP += 0.5
			resp.Digest = resp.digest()
			json.NewEncoder(rw).Encode(resp) //nolint:errcheck
		})
	})
}

// TestAuditDivergenceHardFailure: with audit mode sampling every cell, a
// worker returning self-consistent but wrong results is caught by the digest
// diff against an independent worker, and the sweep fails hard — silent
// divergence must never assemble into a table.
func TestAuditDivergenceHardFailure(t *testing.T) {
	honest := newWorkerServer(t, nil)
	liar := lyingWorkerServer(t)
	opts := testOptions()
	opts.AuditFraction = 1
	c := newTestCoordinator(t, []string{honest.URL, liar.URL}, opts)
	_, err := c.SweepDesign(context.Background(), testDesign(), study.Heterogeneous)
	if !errors.Is(err, ErrAuditDivergence) {
		t.Fatalf("sweep with a lying worker: err = %v, want ErrAuditDivergence", err)
	}
	if c.State().AuditMismatches == 0 {
		t.Error("expected audit mismatch counter to advance")
	}
}

// TestAuditCleanFleetPasses: audit mode over an honest fleet audits cells
// and changes nothing — the table stays byte-identical.
func TestAuditCleanFleetPasses(t *testing.T) {
	want := localSweepJSON(t)
	w1 := newWorkerServer(t, nil)
	w2 := newWorkerServer(t, nil)
	opts := testOptions()
	opts.AuditFraction = 1
	c := newTestCoordinator(t, []string{w1.URL, w2.URL}, opts)
	got := fleetSweepJSON(t, c)
	if string(got) != string(want) {
		t.Fatal("audited sweep differs from single-process table")
	}
	st := c.State()
	if st.Audits == 0 {
		t.Error("expected audits with AuditFraction=1")
	}
	if st.AuditMismatches != 0 {
		t.Errorf("honest fleet produced %d audit mismatches", st.AuditMismatches)
	}
}

// TestCoordinatorRejectsBadAuditFraction pins constructor validation.
func TestCoordinatorRejectsBadAuditFraction(t *testing.T) {
	for _, frac := range []float64{-0.1, 1.1} {
		opts := testOptions()
		opts.AuditFraction = frac
		if _, err := NewCoordinator(sharedSim().Study(), []string{"http://x"}, opts); err == nil {
			t.Errorf("audit fraction %g accepted", frac)
		}
	}
}

// TestCoordinatorReroutesAroundDrainingWorker: a worker answering 503 with
// the draining header must be skipped immediately — cells reroute to the
// rest of the fleet, the drain counter advances, and the worker takes no
// breaker penalty (it is healthy, just leaving).
func TestCoordinatorReroutesAroundDrainingWorker(t *testing.T) {
	want := localSweepJSON(t)
	draining := newWorkerServer(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, CellPath) {
				rw.Header().Set(DrainingHeader, "1")
				rw.Header().Set("Retry-After", "1")
				rw.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			next.ServeHTTP(rw, r)
		})
	})
	healthy := newWorkerServer(t, nil)
	c := newTestCoordinator(t, []string{draining.URL, healthy.URL}, testOptions())
	got := fleetSweepJSON(t, c)
	if string(got) != string(want) {
		t.Fatal("sweep around draining worker differs from single-process table")
	}
	st := c.State()
	if st.Drains == 0 {
		t.Error("expected drain counter to advance")
	}
	for _, w := range st.Workers {
		if w.URL == draining.URL && w.Breaker != "closed" {
			t.Errorf("draining worker breaker %q, want closed (drains carry no penalty)", w.Breaker)
		}
	}
}
