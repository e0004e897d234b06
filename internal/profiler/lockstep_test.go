package profiler

import (
	"context"
	"math"
	"reflect"
	"testing"

	"smtflex/internal/config"
	"smtflex/internal/multicore"
	"smtflex/internal/trace"
	"smtflex/internal/workload"
)

// referenceRun measures one run the direct way: its own chip, its own
// profileSeed generator, Run(Warmup) then Run(Warmup+UopCount).
func referenceRun(t *testing.T, s *Source, spec trace.Spec, r run) measured {
	t.Helper()
	d := config.Design{Name: "reference", MemBandwidthGBps: 8, Cores: []config.Core{r.cc}}
	llc := config.LLCConfig()
	d.LLC.SizeBytes, d.LLC.Assoc, d.LLC.LatencyCycles = llc.SizeBytes, llc.Assoc, llc.LatencyCycles
	chip, err := multicore.New(d, r.ideal)
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.NewGenerator(spec, profileSeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chip.AttachThread(0, g); err != nil {
		t.Fatal(err)
	}
	chip.Run(s.Warmup)
	warm, warmDram := chip.ThreadStats(0), chip.DRAMStats()
	chip.Run(s.Warmup + s.UopCount)
	final, finalDram := chip.ThreadStats(0), chip.DRAMStats()
	duops := float64(final.Uops - warm.Uops)
	m := measured{
		cpi:         (final.FinishTime - warm.FinishTime) / duops,
		mispredicts: float64(final.Mispredicts-warm.Mispredicts) / duops,
	}
	if fills := finalDram.Accesses - warmDram.Accesses; fills > 0 {
		m.wbFraction = float64(finalDram.Writebacks-warmDram.Writebacks) / float64(fills)
	}
	return m
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestLockstepMatchesSeparateRuns: every benchmark on every core type,
// profiled through the shared trace passes, is bitwise equal to the profile
// assembled from runs that each own a chip and a generator. At 5000 µops
// the chunks end at 4096, 8192, Warmup=10000, 14096 and 15000, so the warm
// edge is not a multiple of the chunk length.
func TestLockstepMatchesSeparateRuns(t *testing.T) {
	s := NewSource(5_000)
	for _, spec := range workload.Benchmarks() {
		curves, err := s.curvesFor(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		for ct := config.CoreType(0); ct < config.NumCoreTypes; ct++ {
			runs := profileRuns(config.CoreOfType(ct))
			got, err := s.simulate(spec, runs)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]measured, len(runs))
			for i, r := range runs {
				want[i] = referenceRun(t, s, spec, r)
				g, w := got[i], want[i]
				if !sameBits(g.cpi, w.cpi) || !sameBits(g.mispredicts, w.mispredicts) || !sameBits(g.wbFraction, w.wbFraction) {
					t.Errorf("%s on %s, run %d %+v: lockstep %+v, separate %+v", spec.Name, ct, i, r.ideal, g, w)
				}
			}
			p, err := s.Profile(spec, ct)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := assemble(spec, ct, curves, want)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(p, ref) {
				t.Errorf("%s on %s: profile differs from the separate-runs reference:\n%+v\n%+v", spec.Name, ct, p, ref)
			}
		}
	}
}

// TestTracePassesPerProfile: the runs with an ideal data hierarchy lead the
// list and share one pass, and D and Dmin get one each — 3/3/2 passes for
// the 10/7/4 runs of big, medium and small cores.
func TestTracePassesPerProfile(t *testing.T) {
	want := map[config.CoreType][2]int{config.Big: {10, 3}, config.Medium: {7, 3}, config.Small: {4, 2}}
	for ct, w := range want {
		runs := profileRuns(config.CoreOfType(ct))
		shared := 0
		for shared < len(runs) && runs[shared].ideal.DCache {
			shared++
		}
		for _, r := range runs[shared:] {
			if r.ideal.DCache {
				t.Fatalf("%s: ideal-D run after a real-D run", ct)
			}
		}
		if got := [2]int{len(runs), 1 + len(runs) - shared}; got != w {
			t.Errorf("%s: %d runs in %d passes, want %d in %d", ct, got[0], got[1], w[0], w[1])
		}
	}
}
