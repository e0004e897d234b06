package core

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// goldenDir holds every figure's CSV from `figures -exp all -uops 5000
// -mixes 1`: a reduced-fidelity campaign cheap enough for tier-1 that still
// exercises profiling, the sweep engine and every table builder. A model
// change that moves any number fails here; an intentional one regenerates
// the files with that command (`-csv internal/core/testdata/golden/`).
const goldenDir = "testdata/golden"

func TestGoldenReducedFidelity(t *testing.T) {
	s := NewSimulator(WithUopCount(5_000), WithMixesPerCount(1))
	ids := FigureIDs()
	files, err := filepath.Glob(filepath.Join(goldenDir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(ids) {
		t.Fatalf("%d golden files for %d figures", len(files), len(ids))
	}
	for _, id := range ids {
		want, err := os.ReadFile(filepath.Join(goldenDir, id+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		tab, err := s.Figure(context.Background(), id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got := tab.CSV(); got != string(want) {
			t.Errorf("%s: CSV differs from %s/%s.csv\ngot:\n%s", id, goldenDir, id, got)
		}
	}
}
