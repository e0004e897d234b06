// Package workload defines the multi-program workloads of the study: twelve
// synthetic benchmark specifications named after the SPEC CPU 2006 programs
// whose behaviour they imitate, plus the homogeneous and heterogeneous mix
// construction the paper uses (balanced random sampling per Velasquez et
// al., with every benchmark included an equal number of times per thread
// count).
//
// The twelve specs are chosen the way the paper chose its twelve SPEC
// benchmark/input pairs: to cover the full range of relative performance
// across the three core types — from high-ILP compute-bound codes that love
// the big core's width and window (tonto-, calculix-like) to streaming
// bandwidth-bound codes whose performance flattens across core types once
// the memory bus saturates (libquantum-, lbm-like), with branchy,
// cache-sensitive and pointer-chasing behaviour in between.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"smtflex/internal/isa"
	"smtflex/internal/trace"
)

// mix builds an instruction-mix array from per-class fractions; the
// remainder after the named classes is assigned to IntAlu.
func mix(load, store, branch, fpAdd, fpMul, intMul float64) [isa.NumClasses]float64 {
	var m [isa.NumClasses]float64
	m[isa.Load] = load
	m[isa.Store] = store
	m[isa.Branch] = branch
	m[isa.FpAdd] = fpAdd
	m[isa.FpMul] = fpMul
	m[isa.IntMul] = intMul
	m[isa.Jump] = 0.01
	rest := 1.0
	for _, f := range m {
		rest -= f
	}
	m[isa.IntAlu] = rest
	return m
}

const (
	kb = 1 << 10
	mb = 1 << 20
)

// specs is the benchmark table, sorted by name, and specIndex maps each name
// to its position. Both are built once; callers only ever see copies.
var (
	specs     = buildSpecs()
	specIndex = indexSpecs(specs)
)

func indexSpecs(ss []trace.Spec) map[string]int {
	idx := make(map[string]int, len(ss))
	for i, s := range ss {
		idx[s.Name] = i
	}
	return idx
}

// cloneSpec returns s with its Streams slice copied, so a caller that
// mutates the returned spec cannot change the shared table.
func cloneSpec(s trace.Spec) trace.Spec {
	s.Streams = append([]trace.MemStream(nil), s.Streams...)
	return s
}

// Benchmarks returns the twelve benchmark specifications, sorted by name.
// The slice and every spec's Streams are fresh copies.
func Benchmarks() []trace.Spec {
	out := make([]trace.Spec, len(specs))
	for i, s := range specs {
		out[i] = cloneSpec(s)
	}
	return out
}

// buildSpecs constructs the benchmark table sorted by name.
func buildSpecs() []trace.Spec {
	table := []trace.Spec{
		{
			// High-ILP floating-point compute; scales with core width/window.
			Name:               "tonto",
			Mix:                mix(0.24, 0.10, 0.05, 0.15, 0.12, 0.02),
			MeanDepDist:        14,
			SecondSrcProb:      0.55,
			BranchRandomFrac:   0.03,
			CodeFootprintBytes: 24 * kb,
			Streams: []trace.MemStream{
				{Weight: 0.85, WorkingSetBytes: 8 * kb},
				{Weight: 0.15, WorkingSetBytes: 192 * kb, Sequential: true, StrideBytes: 16},
			},
			Seed: 0x01,
		},
		{
			// FP matrix code, very regular, compute-bound.
			Name:               "calculix",
			Mix:                mix(0.26, 0.09, 0.04, 0.18, 0.15, 0.01),
			MeanDepDist:        16,
			SecondSrcProb:      0.6,
			BranchRandomFrac:   0.02,
			CodeFootprintBytes: 16 * kb,
			Streams: []trace.MemStream{
				{Weight: 0.8, WorkingSetBytes: 8 * kb},
				{Weight: 0.2, WorkingSetBytes: 128 * kb, Sequential: true, StrideBytes: 8},
			},
			Seed: 0x02,
		},
		{
			// Video encode: integer compute with moderate ILP, hot code.
			Name:               "h264ref",
			Mix:                mix(0.28, 0.12, 0.06, 0.02, 0.01, 0.04),
			MeanDepDist:        10,
			SecondSrcProb:      0.5,
			BranchRandomFrac:   0.06,
			CodeFootprintBytes: 32 * kb,
			Streams: []trace.MemStream{
				{Weight: 0.7, WorkingSetBytes: 8 * kb},
				{Weight: 0.3, WorkingSetBytes: 320 * kb, Sequential: true, StrideBytes: 16},
			},
			Seed: 0x03,
		},
		{
			// hmmer: tight integer loops, very predictable, tiny footprint.
			Name:               "hmmer",
			Mix:                mix(0.30, 0.12, 0.07, 0.0, 0.0, 0.03),
			MeanDepDist:        12,
			SecondSrcProb:      0.6,
			BranchRandomFrac:   0.02,
			CodeFootprintBytes: 8 * kb,
			Streams: []trace.MemStream{
				{Weight: 0.9, WorkingSetBytes: 6 * kb},
				{Weight: 0.1, WorkingSetBytes: 96 * kb, Sequential: true, StrideBytes: 16},
			},
			Seed: 0x04,
		},
		{
			// Game tree search: branch-misprediction dominated.
			Name:               "gobmk",
			Mix:                mix(0.25, 0.11, 0.13, 0.0, 0.0, 0.02),
			MeanDepDist:        7,
			SecondSrcProb:      0.45,
			BranchRandomFrac:   0.22,
			CodeFootprintBytes: 64 * kb,
			Streams: []trace.MemStream{
				{Weight: 0.75, WorkingSetBytes: 10 * kb},
				{Weight: 0.25, WorkingSetBytes: 512 * kb, Sequential: true, StrideBytes: 16},
			},
			Seed: 0x05,
		},
		{
			// Chess search: branchy with modest working set.
			Name:               "sjeng",
			Mix:                mix(0.23, 0.09, 0.14, 0.0, 0.0, 0.02),
			MeanDepDist:        8,
			SecondSrcProb:      0.45,
			BranchRandomFrac:   0.18,
			CodeFootprintBytes: 48 * kb,
			Streams: []trace.MemStream{
				{Weight: 0.7, WorkingSetBytes: 8 * kb},
				{Weight: 0.3, WorkingSetBytes: 1 * mb, Sequential: true, StrideBytes: 16},
			},
			Seed: 0x06,
		},
		{
			// Compression: mid memory intensity, medium working set.
			Name:               "bzip2",
			Mix:                mix(0.29, 0.13, 0.10, 0.0, 0.0, 0.01),
			MeanDepDist:        9,
			SecondSrcProb:      0.5,
			BranchRandomFrac:   0.10,
			CodeFootprintBytes: 20 * kb,
			Streams: []trace.MemStream{
				{Weight: 0.52, WorkingSetBytes: 8 * kb},
				{Weight: 0.38, WorkingSetBytes: 640 * kb, Sequential: true, StrideBytes: 16},
				{Weight: 0.10, WorkingSetBytes: 6 * mb, Sequential: true, StrideBytes: 32},
			},
			Seed: 0x07,
		},
		{
			// Compiler: large code footprint, irregular data.
			Name:               "gcc",
			Mix:                mix(0.27, 0.14, 0.11, 0.0, 0.0, 0.01),
			MeanDepDist:        8,
			SecondSrcProb:      0.5,
			BranchRandomFrac:   0.09,
			CodeFootprintBytes: 96 * kb,
			Streams: []trace.MemStream{
				{Weight: 0.58, WorkingSetBytes: 10 * kb},
				{Weight: 0.34, WorkingSetBytes: 1536 * kb, Sequential: true, StrideBytes: 16},
				{Weight: 0.08, WorkingSetBytes: 12 * mb},
			},
			Seed: 0x08,
		},
		{
			// LP solver: cache-capacity sensitive; lives or dies on the LLC.
			Name:               "soplex",
			Mix:                mix(0.30, 0.09, 0.07, 0.08, 0.05, 0.01),
			MeanDepDist:        9,
			SecondSrcProb:      0.5,
			BranchRandomFrac:   0.07,
			CodeFootprintBytes: 32 * kb,
			Streams: []trace.MemStream{
				{Weight: 0.42, WorkingSetBytes: 8 * kb},
				{Weight: 0.42, WorkingSetBytes: 3 * mb, Sequential: true, StrideBytes: 16},
				{Weight: 0.16, WorkingSetBytes: 24 * mb, Sequential: true, StrideBytes: 32},
			},
			Seed: 0x09,
		},
		{
			// Discrete event simulation: pointer-heavy, large footprint.
			Name:               "omnetpp",
			Mix:                mix(0.31, 0.14, 0.09, 0.0, 0.0, 0.01),
			MeanDepDist:        7,
			SecondSrcProb:      0.45,
			BranchRandomFrac:   0.10,
			CodeFootprintBytes: 64 * kb,
			Streams: []trace.MemStream{
				{Weight: 0.5, WorkingSetBytes: 8 * kb},
				{Weight: 0.38, WorkingSetBytes: 4 * mb, PointerChase: true},
				{Weight: 0.12, WorkingSetBytes: 32 * mb},
			},
			Seed: 0x0A,
		},
		{
			// mcf: dominated by pointer-chasing DRAM latency, huge footprint.
			Name:               "mcf",
			Mix:                mix(0.34, 0.10, 0.08, 0.0, 0.0, 0.0),
			MeanDepDist:        5,
			SecondSrcProb:      0.4,
			BranchRandomFrac:   0.12,
			CodeFootprintBytes: 12 * kb,
			Streams: []trace.MemStream{
				{Weight: 0.62, WorkingSetBytes: 8 * kb},
				{Weight: 0.14, WorkingSetBytes: 64 * mb, PointerChase: true},
				{Weight: 0.24, WorkingSetBytes: 12 * mb},
			},
			Seed: 0x0B,
		},
		{
			// libquantum: pure streaming, bandwidth-bound at scale.
			Name:               "libquantum",
			Mix:                mix(0.26, 0.12, 0.08, 0.0, 0.0, 0.01),
			MeanDepDist:        13,
			SecondSrcProb:      0.4,
			BranchRandomFrac:   0.01,
			CodeFootprintBytes: 6 * kb,
			Streams: []trace.MemStream{
				{Weight: 0.15, WorkingSetBytes: 4 * kb},
				{Weight: 0.85, WorkingSetBytes: 64 * mb, Sequential: true, StrideBytes: 8},
			},
			Seed: 0x0C,
		},
	}
	sort.Slice(table, func(i, j int) bool { return table[i].Name < table[j].Name })
	return table
}

// ByName returns the named benchmark spec; its Streams slice is a copy.
func ByName(name string) (trace.Spec, error) {
	i, ok := specIndex[name]
	if !ok {
		return trace.Spec{}, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	return cloneSpec(specs[i]), nil
}

// Names returns the benchmark names in sorted order.
func Names() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// Mix is one multi-program workload: an ordered list of benchmark names, one
// per thread.
type Mix struct {
	// ID distinguishes mixes with the same composition.
	ID string
	// Programs lists one benchmark name per thread.
	Programs []string
}

// NumThreads returns the thread count of the mix.
func (m Mix) NumThreads() int { return len(m.Programs) }

// HomogeneousMixes returns, for each benchmark, a mix of n copies of it.
func HomogeneousMixes(n int) []Mix {
	var out []Mix
	for _, name := range Names() {
		progs := make([]string, n)
		for i := range progs {
			progs[i] = name
		}
		out = append(out, Mix{ID: fmt.Sprintf("homog-%s-%d", name, n), Programs: progs})
	}
	return out
}

// HeterogeneousMixes returns mixesPerCount random n-program combinations
// using balanced random sampling: across the returned mixes every benchmark
// appears an equal number of times (up to rounding), as in Velasquez et al.
// The construction is deterministic for a given (n, mixesPerCount, seed).
func HeterogeneousMixes(n, mixesPerCount int, seed int64) []Mix {
	names := Names()
	rng := rand.New(rand.NewSource(seed + int64(n)*1009))
	// Build a pool with every benchmark repeated ceil(n*mixes/len) times,
	// shuffle, then deal into mixes. This balances benchmark frequency.
	total := n * mixesPerCount
	reps := (total + len(names) - 1) / len(names)
	pool := make([]string, 0, reps*len(names))
	for r := 0; r < reps; r++ {
		pool = append(pool, names...)
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	pool = pool[:total]

	out := make([]Mix, mixesPerCount)
	for i := range out {
		progs := append([]string(nil), pool[i*n:(i+1)*n]...)
		out[i] = Mix{ID: fmt.Sprintf("heterog-%d-%d", n, i), Programs: progs}
	}
	return out
}

// Readers builds one trace reader per program in the mix, each with a
// distinct address offset so co-running copies of one benchmark touch
// disjoint memory, as separate processes would.
func (m Mix) Readers(uopSeed uint64) ([]trace.Reader, error) {
	readers := make([]trace.Reader, len(m.Programs))
	for i, name := range m.Programs {
		spec, err := ByName(name)
		if err != nil {
			return nil, err
		}
		g, err := trace.NewGenerator(spec, uopSeed+uint64(i)*0x9E37)
		if err != nil {
			return nil, err
		}
		readers[i] = trace.OffsetAddresses(g, uint64(i+1)<<40)
	}
	return readers, nil
}
