package multicore

import (
	"testing"

	"smtflex/internal/config"
	"smtflex/internal/cpu"
	"smtflex/internal/trace"
	"smtflex/internal/workload"
)

func mustChip(t *testing.T, name string, smt bool) *Chip {
	t.Helper()
	d, err := config.DesignByName(name, smt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(d, cpu.Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func reader(t *testing.T, bench string, seed uint64) trace.Reader {
	return generator(t, bench, seed)
}

func generator(t *testing.T, bench string, seed uint64) *trace.Generator {
	t.Helper()
	spec, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.NewGenerator(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewRejectsInvalidDesign(t *testing.T) {
	var d config.Design
	if _, err := New(d, cpu.Ideal{}); err == nil {
		t.Fatal("empty design accepted")
	}
}

func TestAttachThreadBounds(t *testing.T) {
	c := mustChip(t, "4B", true)
	if _, err := c.AttachThread(-1, reader(t, "hmmer", 1)); err == nil {
		t.Fatal("negative core accepted")
	}
	if _, err := c.AttachThread(4, reader(t, "hmmer", 1)); err == nil {
		t.Fatal("out-of-range core accepted")
	}
	id, err := c.AttachThread(0, reader(t, "hmmer", 1))
	if err != nil || id != 0 {
		t.Fatalf("attach failed: id=%d err=%v", id, err)
	}
	if c.NumThreads() != 1 {
		t.Fatalf("NumThreads %d", c.NumThreads())
	}
}

func TestRunReachesTarget(t *testing.T) {
	c := mustChip(t, "4B", true)
	for i := 0; i < 4; i++ {
		if _, err := c.AttachThread(i, reader(t, "hmmer", uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	stats := c.Run(5000)
	if len(stats) != 4 {
		t.Fatalf("%d stats", len(stats))
	}
	for i, st := range stats {
		if st.Uops < 5000 {
			t.Errorf("thread %d retired %d µops, want >= 5000", i, st.Uops)
		}
		if st.IPC() <= 0 {
			t.Errorf("thread %d IPC %g", i, st.IPC())
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	mk := func() []cpu.ThreadStats {
		c := mustChip(t, "2B4m", true)
		for i := 0; i < 6; i++ {
			if _, err := c.AttachThread(i, reader(t, "gcc", uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		return c.Run(3000)
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run not deterministic at thread %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestEmptyChipRun(t *testing.T) {
	c := mustChip(t, "4B", true)
	if stats := c.Run(1000); stats != nil {
		t.Fatal("empty chip should return nil stats")
	}
}

func TestSharedLLCSeesTraffic(t *testing.T) {
	c := mustChip(t, "4B", true)
	c.AttachThread(0, reader(t, "mcf", 1))
	c.Run(20000)
	if c.LLCStats().Accesses == 0 {
		t.Fatal("mcf never reached the LLC")
	}
	if c.DRAMStats().Accesses == 0 {
		t.Fatal("mcf never reached DRAM")
	}
}

func TestComputeBoundStaysOnChip(t *testing.T) {
	c := mustChip(t, "4B", true)
	c.AttachThread(0, reader(t, "hmmer", 1))
	// Warm long enough to touch the whole 96 KB secondary working set
	// (compulsory misses trickle in for ~150k µops at 10% access weight).
	c.Run(250_000)
	warm := c.DRAMStats().Accesses
	c.Run(350_000)
	perUop := float64(c.DRAMStats().Accesses-warm) / 100_000
	if perUop > 0.002 {
		t.Fatalf("hmmer steady-state DRAM accesses per µop %.4f, want ~0", perUop)
	}
}

func TestCoreCacheStats(t *testing.T) {
	c := mustChip(t, "4B", true)
	c.AttachThread(2, reader(t, "gcc", 1))
	c.Run(10000)
	l1i, l1d, l2 := c.CoreCacheStats(2)
	if l1i.Accesses == 0 || l1d.Accesses == 0 || l2.Accesses == 0 {
		t.Fatalf("idle caches on the active core: %+v %+v %+v", l1i, l1d, l2)
	}
	li, ld, _ := c.CoreCacheStats(0)
	if li.Accesses != 0 || ld.Accesses != 0 {
		t.Fatal("inactive core saw traffic")
	}
}

func TestSMTCoSimulationFairness(t *testing.T) {
	// Six copies of the same benchmark on one big SMT core progress at
	// similar rates under round-robin fetch.
	c := mustChip(t, "4B", true)
	for i := 0; i < 6; i++ {
		if _, err := c.AttachThread(0, reader(t, "tonto", 42)); err != nil {
			t.Fatal(err)
		}
	}
	stats := c.Run(3000)
	min, max := stats[0].IPC(), stats[0].IPC()
	for _, st := range stats[1:] {
		if v := st.IPC(); v < min {
			min = v
		} else if v > max {
			max = v
		}
	}
	if max > min*1.3 {
		t.Fatalf("unfair SMT progress: min %.3f max %.3f", min, max)
	}
}

func TestContentionSlowsCoRunners(t *testing.T) {
	// A thread co-running with 19 memory-bound threads on 20s is slower
	// than alone (shared LLC + DRAM contention).
	solo := mustChip(t, "20s", false)
	solo.AttachThread(0, trace.OffsetAddresses(generator(t, "libquantum", 9), 1<<40))
	soloIPC := solo.Run(10000)[0].IPC()

	crowd := mustChip(t, "20s", false)
	for i := 0; i < 20; i++ {
		// Distinct address offsets: separate programs, as in a real
		// multi-program workload (co-runners must not share data).
		r := trace.OffsetAddresses(generator(t, "libquantum", 9), uint64(i+1)<<40)
		if _, err := crowd.AttachThread(i, r); err != nil {
			t.Fatal(err)
		}
	}
	crowdIPC := crowd.Run(10000)[0].IPC()
	if crowdIPC >= soloIPC {
		t.Fatalf("no contention effect: solo %.3f vs crowded %.3f", soloIPC, crowdIPC)
	}
}

func TestDesignAccessors(t *testing.T) {
	c := mustChip(t, "3B5s", true)
	if c.Design().Name != "3B5s" {
		t.Fatal("design accessor wrong")
	}
	if c.Core(0).Config().Type != config.Big || c.Core(7).Config().Type != config.Small {
		t.Fatal("core ordering wrong")
	}
}

func TestThreadStatsById(t *testing.T) {
	c := mustChip(t, "4B", true)
	id0, _ := c.AttachThread(0, reader(t, "hmmer", 1))
	id1, _ := c.AttachThread(1, reader(t, "mcf", 2))
	c.Run(2000)
	if c.ThreadStats(id0).Uops < 2000 || c.ThreadStats(id1).Uops < 2000 {
		t.Fatal("per-id stats missing")
	}
	// hmmer is much faster than mcf on the same chip.
	if c.ThreadStats(id0).IPC() <= c.ThreadStats(id1).IPC() {
		t.Fatal("expected hmmer to outpace mcf")
	}
}

func TestDirtyLLCEvictionsReachDRAM(t *testing.T) {
	// A store-heavy benchmark with a DRAM-sized footprint produces dirty
	// LLC evictions, which must show up as DRAM writebacks.
	// The 8 MB LLC holds 131k lines; evictions only start once sets fill,
	// which takes on the order of a million µops at mcf's miss rate.
	c := mustChip(t, "4B", true)
	c.AttachThread(0, reader(t, "mcf", 3))
	c.Run(1_200_000)
	if c.DRAMStats().Writebacks == 0 {
		t.Fatal("no DRAM writebacks for a store-heavy DRAM-bound workload")
	}
	if c.DRAMStats().Writebacks >= c.DRAMStats().Accesses {
		t.Fatal("more writebacks than fills")
	}
}

// TestRunInChunksBitIdentical: a lone thread run to ascending targets in
// small chunks ends every chunk at exactly its target, and reaches the same
// state as the Run(warmup), Run(warmup+uops) pair and as stepping the core
// by hand — bit for bit, DRAM included, on every core type with and without
// idealization.
func TestRunInChunksBitIdentical(t *testing.T) {
	const warmup, uops = 3000, 4000
	for ct := config.CoreType(0); ct < config.NumCoreTypes; ct++ {
		for _, ideal := range []cpu.Ideal{{}, {ICache: true, DCache: true}} {
			d := config.Design{Name: "one", MemBandwidthGBps: 8, Cores: []config.Core{config.CoreOfType(ct)}}
			llc := config.LLCConfig()
			d.LLC.SizeBytes, d.LLC.Assoc, d.LLC.LatencyCycles = llc.SizeBytes, llc.Assoc, llc.LatencyCycles
			chip := func() *Chip {
				c, err := New(d, ideal)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.AttachThread(0, reader(t, "mcf", 5)); err != nil {
					t.Fatal(err)
				}
				return c
			}
			pair, chunked, stepped := chip(), chip(), chip()

			pair.Run(warmup)
			warm := pair.ThreadStats(0)
			pair.Run(warmup + uops)

			var chunkWarm cpu.ThreadStats
			for done := uint64(0); done < warmup+uops; {
				done = min(done+997, warmup+uops)
				if done > warmup && chunkWarm.Uops == 0 {
					done = warmup
				}
				if st := chunked.Run(done); st[0].Uops != done {
					t.Fatalf("%s: chunk to %d retired %d µops", ct, done, st[0].Uops)
				}
				if done == warmup {
					chunkWarm = chunked.ThreadStats(0)
				}
			}
			for i := 0; i < warmup+uops; i++ {
				stepped.Core(0).StepThread(0)
			}

			if chunkWarm != warm {
				t.Errorf("%s %+v: warm stats differ in chunks:\n%+v\n%+v", ct, ideal, chunkWarm, warm)
			}
			for name, c := range map[string]*Chip{"chunked": chunked, "stepped": stepped} {
				if c.ThreadStats(0) != pair.ThreadStats(0) || c.DRAMStats() != pair.DRAMStats() || c.LLCStats() != pair.LLCStats() {
					t.Errorf("%s %+v: %s run differs from Run pair:\n%+v\n%+v", ct, ideal, name, c.ThreadStats(0), pair.ThreadStats(0))
				}
			}
		}
	}
}
