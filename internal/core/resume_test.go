package core

import (
	"context"
	"encoding/json"
	"math"
	"sync"
	"testing"

	"smtflex/internal/journal"
	"smtflex/internal/study"
)

// The resume tests run a small campaign: figures that need measured
// profiles (fig1), the sweep engine (fig3a) and a static table (table1),
// at a profiling length small enough for tier-1.
const (
	resumeUops = 5_000
	otherUops  = 6_000
)

var resumeIDs = []string{"fig1", "fig3a", "table1"}

func tinySim(uops uint64) *Simulator {
	return NewSimulator(WithUopCount(uops), WithMixesPerCount(1))
}

// render regenerates ids on s, concurrently as a server would, and returns
// each table's text and CSV form.
func render(t *testing.T, s *Simulator, ids []string) map[string]string {
	t.Helper()
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		out = make(map[string]string, len(ids))
	)
	for _, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tab, err := s.Figure(context.Background(), id)
			if err != nil {
				t.Errorf("%s: %v", id, err)
				return
			}
			mu.Lock()
			out[id] = tab.String() + tab.CSV()
			mu.Unlock()
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return out
}

var (
	freshOnce sync.Once
	freshRefs map[uint64]map[string]string
)

// freshRuns renders resumeIDs on uninterrupted, journal-less simulators at
// both profiling lengths, once for all resume tests.
func freshRuns(t *testing.T) map[uint64]map[string]string {
	freshOnce.Do(func() {
		freshRefs = map[uint64]map[string]string{
			resumeUops: render(t, tinySim(resumeUops), resumeIDs),
			otherUops:  render(t, tinySim(otherUops), resumeIDs),
		}
	})
	return freshRefs
}

func sameTables(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	for _, id := range resumeIDs {
		if got[id] != want[id] {
			t.Errorf("%s: %s differs from an uninterrupted run:\n%s\nvs\n%s", what, id, got[id], want[id])
		}
	}
}

func resume(t *testing.T, s *Simulator, dir string, want int) {
	t.Helper()
	n, err := s.Resume(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("resumed %d figure(s), want %d", n, want)
	}
}

// TestResumeInterruptedCampaignByteIdentical: a campaign killed after its
// first figure and re-run on the same directory renders every table
// byte-identically to an uninterrupted campaign.
func TestResumeInterruptedCampaignByteIdentical(t *testing.T) {
	want := freshRuns(t)[resumeUops]
	dir := t.TempDir()

	partial := tinySim(resumeUops)
	resume(t, partial, dir, 0)
	render(t, partial, resumeIDs[:1])

	restarted := tinySim(resumeUops)
	resume(t, restarted, dir, 1)
	sameTables(t, "resumed", render(t, restarted, resumeIDs), want)

	// The finished campaign journaled every figure and, with them, the
	// profile cache: a third run measures nothing.
	again := tinySim(resumeUops)
	resume(t, again, dir, len(resumeIDs))
	sameTables(t, "fully resumed", render(t, again, resumeIDs), want)
	for _, c := range again.Source().CacheCounters() {
		if c.Misses != 0 {
			t.Errorf("fully resumed campaign measured %d %s entries, want 0", c.Misses, c.Name)
		}
	}
}

// TestResumeAtOtherUopCountMatchesFreshRun is the stale-profile regression:
// resuming a directory journaled at one profiling length under another must
// neither reuse its tables nor its profile cache.
func TestResumeAtOtherUopCountMatchesFreshRun(t *testing.T) {
	refs := freshRuns(t)
	differs := false
	for _, id := range resumeIDs {
		differs = differs || refs[resumeUops][id] != refs[otherUops][id]
	}
	if !differs {
		t.Fatal("the two profiling lengths render identical tables; the test cannot tell them apart")
	}
	dir := t.TempDir()
	first := tinySim(resumeUops)
	resume(t, first, dir, 0)
	render(t, first, resumeIDs)

	other := tinySim(otherUops)
	resume(t, other, dir, 0)
	sameTables(t, "resumed at another uop count", render(t, other, resumeIDs), refs[otherUops])
}

// TestResumeServesJournaledTableWithoutRecomputing plants a table no
// simulation produces under a figure id: Figure must hand it back as is,
// which also pins the byte-exact round trip of awkward floats through an
// indented payload.
func TestResumeServesJournaledTableWithoutRecomputing(t *testing.T) {
	planted := study.NewTable("Planted <awkward> & exact", []string{"r0", "r1"}, []string{"c0", "c1", "c2"})
	vals := [][]float64{
		{1.0 / 3.0, 0.1, 1e300},
		{-2.5e-17, math.Pi, 0.30000000000000004},
	}
	for r := range vals {
		for c := range vals[r] {
			planted.Set(r, c, vals[r][c])
		}
	}
	planted.Precision = 17

	dir := t.TempDir()
	s := tinySim(resumeUops)
	j, _, err := journal.Open(dir, s.Study().Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.MarshalIndent(planted, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Put("fig3a", payload); err != nil {
		t.Fatal(err)
	}

	resume(t, s, dir, 1)
	got, err := s.Figure(context.Background(), "fig3a")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != planted.String() || got.CSV() != planted.CSV() {
		t.Fatalf("journaled table not served byte-identically:\n%s%s\nvs\n%s%s",
			got, got.CSV(), planted, planted.CSV())
	}
	for _, c := range s.Source().CacheCounters() {
		if c.Misses != 0 {
			t.Errorf("serving a journaled figure measured %d %s entries", c.Misses, c.Name)
		}
	}
}

// TestResumeRecordKeysValid: every figure id, and the profile cache's key,
// must be accepted by the journal, and no figure may share the cache's key.
func TestResumeRecordKeysValid(t *testing.T) {
	j, _, err := journal.Open(t.TempDir(), "keys")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range append(FigureIDs(), profilesKey) {
		if err := j.Put(id, []byte(`{}`)); err != nil {
			t.Errorf("journal rejects key %q: %v", id, err)
		}
	}
	if _, ok := figureRegistry[profilesKey]; ok {
		t.Errorf("figure id %q collides with the profile cache record", profilesKey)
	}
}
