// Package trace generates deterministic synthetic µop streams from
// statistical benchmark specifications.
//
// The original study drives Sniper with SPEC CPU 2006 SimPoint traces. We do
// not have those traces, so each benchmark is described by a Spec — its
// instruction mix, dependency-distance distribution, branch predictability,
// code footprint and a memory access mixture over working sets of different
// sizes — and a seeded Generator expands the Spec into an unbounded µop
// stream. Two generators with the same Spec and seed produce identical
// streams, making every experiment reproducible.
package trace

import (
	"errors"
	"fmt"

	"smtflex/internal/isa"
)

// ErrBadTrace is wrapped by every spec-validation failure, so callers up the
// stack (and the daemon's error mapper) can classify bad benchmark
// descriptions without matching message strings.
var ErrBadTrace = errors.New("trace: invalid benchmark spec")

// MemStream describes one component of a benchmark's memory access mixture.
type MemStream struct {
	// Weight is the relative probability that a memory µop uses this stream.
	Weight float64
	// WorkingSetBytes is the footprint of the stream. Random streams pick
	// uniformly within it; sequential streams wrap around it.
	WorkingSetBytes int
	// Sequential streams advance by StrideBytes per access; non-sequential
	// streams pick a uniformly random block within the working set.
	Sequential bool
	// StrideBytes is the advance per access for sequential streams.
	StrideBytes int
	// PointerChase marks loads whose address depends on the previous load of
	// this stream, serializing their memory-level parallelism.
	PointerChase bool
}

// Spec statistically describes a benchmark.
type Spec struct {
	// Name identifies the benchmark (e.g. "libquantum-like").
	Name string
	// Mix gives the fraction of µops per class; it must sum to ~1.
	Mix [isa.NumClasses]float64
	// MeanDepDist is the mean register dependency distance in µops. Short
	// distances produce dependency chains (low ILP); long distances expose
	// instruction-level parallelism.
	MeanDepDist float64
	// SecondSrcProb is the probability a µop has a second register source.
	SecondSrcProb float64
	// BranchRandomFrac is the fraction of dynamic branches with an
	// unpredictable 50/50 direction; the rest are strongly biased and
	// near-perfectly predictable. Mispredict rate ≈ BranchRandomFrac/2.
	BranchRandomFrac float64
	// CodeFootprintBytes is the static code size driving I-cache behaviour.
	CodeFootprintBytes int
	// Streams is the memory access mixture; weights are normalized.
	Streams []MemStream
	// Seed differentiates benchmarks that share a Spec shape.
	Seed uint64
}

// Validate reports structural problems in the Spec. Every failure wraps
// ErrBadTrace.
func (s Spec) Validate() error {
	if err := s.validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	return nil
}

func (s Spec) validate() error {
	var sum float64
	for _, f := range s.Mix {
		if f < 0 {
			return fmt.Errorf("spec %s: negative mix fraction", s.Name)
		}
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("spec %s: mix sums to %g, want 1", s.Name, sum)
	}
	if s.MeanDepDist < 1 {
		return fmt.Errorf("spec %s: mean dependency distance %g < 1", s.Name, s.MeanDepDist)
	}
	if s.BranchRandomFrac < 0 || s.BranchRandomFrac > 1 {
		return fmt.Errorf("spec %s: branch random fraction %g outside [0,1]", s.Name, s.BranchRandomFrac)
	}
	if s.CodeFootprintBytes <= 0 {
		return fmt.Errorf("spec %s: non-positive code footprint", s.Name)
	}
	if len(s.Streams) == 0 {
		return fmt.Errorf("spec %s: no memory streams", s.Name)
	}
	var w float64
	for i, st := range s.Streams {
		if st.Weight < 0 {
			return fmt.Errorf("spec %s: stream %d has negative weight", s.Name, i)
		}
		if st.WorkingSetBytes < isa.MemBlockSize {
			return fmt.Errorf("spec %s: stream %d working set smaller than a block", s.Name, i)
		}
		if st.Sequential && st.StrideBytes <= 0 {
			return fmt.Errorf("spec %s: sequential stream %d has stride %d", s.Name, i, st.StrideBytes)
		}
		w += st.Weight
	}
	if w <= 0 {
		return fmt.Errorf("spec %s: stream weights sum to %g", s.Name, w)
	}
	return nil
}

// rng is a splitmix64 generator: tiny, fast and deterministic.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform float64 in [0,1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform int in [0,n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// Generator expands a Spec into a deterministic µop stream.
type Generator struct {
	spec Spec
	rng  rng
	seed uint64

	// cumulative class and stream distributions for fast sampling
	classCDF  [isa.NumClasses]float64
	streamCDF []float64

	// per-stream cursors for sequential and pointer-chase streams
	cursor []uint64
	// per-stream base addresses keep streams in disjoint regions
	base []uint64

	// code region walker
	pc       uint64
	codeBase uint64

	// branch bias state: per static branch slot, a biased direction
	biasDirs []bool

	count uint64
}

// codeBlockBytes is the distance between successive basic-block starts in
// the synthetic code layout.
const codeBlockBytes = 32

// NewGenerator builds a generator for spec. Invalid specs fail with an error
// wrapping ErrBadTrace; a malformed benchmark description must fail the one
// evaluation that references it, never the process.
func NewGenerator(spec Spec, seed uint64) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{spec: spec, seed: seed ^ spec.Seed}
	var c float64
	for i, f := range spec.Mix {
		c += f
		g.classCDF[i] = c
	}
	var w float64
	for _, st := range spec.Streams {
		w += st.Weight
	}
	g.streamCDF = make([]float64, len(spec.Streams))
	var acc float64
	for i, st := range spec.Streams {
		acc += st.Weight / w
		g.streamCDF[i] = acc
	}
	g.Reset()
	return g, nil
}

// Count returns the number of µops generated since the last Reset.
func (g *Generator) Count() uint64 { return g.count }

// Reset restarts the stream from the beginning; the regenerated stream is
// identical to the original. The paper restarts programs that finish their
// 750M-instruction SimPoint before the slowest co-runner.
func (g *Generator) Reset() {
	g.rng = rng{state: g.seed}
	g.count = 0
	n := len(g.spec.Streams)
	g.cursor = make([]uint64, n)
	g.base = make([]uint64, n)
	// Lay streams out in disjoint 1 GiB-aligned regions per stream, offset
	// by a benchmark-specific hash so co-running copies of the same
	// benchmark still map to distinct addresses via their thread's offset.
	for i := range g.base {
		g.base[i] = (uint64(i) + 1) << 30
	}
	g.codeBase = 1 << 62
	g.pc = g.codeBase
	// Static branch bias directions, deterministic per benchmark.
	nSlots := g.spec.CodeFootprintBytes / codeBlockBytes
	if nSlots < 1 {
		nSlots = 1
	}
	g.biasDirs = make([]bool, nSlots)
	r := rng{state: g.seed ^ 0xB1A5}
	for i := range g.biasDirs {
		g.biasDirs[i] = r.next()&1 == 0
	}
}

func (g *Generator) sampleClass() isa.Class {
	f := g.rng.float()
	for i := isa.Class(0); i < isa.NumClasses; i++ {
		if f < g.classCDF[i] {
			return i
		}
	}
	return isa.IntAlu
}

func (g *Generator) sampleStream() int {
	f := g.rng.float()
	for i, c := range g.streamCDF {
		if f < c {
			return i
		}
	}
	return len(g.streamCDF) - 1
}

// depDist draws a geometric dependency distance with the spec's mean.
func (g *Generator) depDist() int32 {
	mean := g.spec.MeanDepDist
	// Geometric with success prob 1/mean, minimum 1.
	p := 1 / mean
	d := 1
	for g.rng.float() > p && d < 512 {
		d++
	}
	return int32(d)
}

func (g *Generator) memAddr(si int) uint64 {
	st := &g.spec.Streams[si]
	ws := uint64(st.WorkingSetBytes)
	var off uint64
	if st.Sequential {
		off = g.cursor[si] % ws
		g.cursor[si] += uint64(st.StrideBytes)
	} else {
		blocks := int(ws / isa.MemBlockSize)
		off = uint64(g.rng.intn(blocks)) * isa.MemBlockSize
	}
	return g.base[si] + off
}

// Next generates the next µop in the stream.
func (g *Generator) Next() isa.Uop {
	g.count++
	class := g.sampleClass()
	u := isa.Uop{Class: class, PC: g.pc}

	// Advance the code walker: sequential fall-through with occasional jumps
	// around the code footprint to exercise the I-cache.
	g.pc += 4
	span := uint64(g.spec.CodeFootprintBytes)
	if g.pc >= g.codeBase+span {
		g.pc = g.codeBase
	}

	u.SrcDist[0] = g.depDist()
	if g.rng.float() < g.spec.SecondSrcProb {
		u.SrcDist[1] = g.depDist()
	}

	switch {
	case class.IsMem():
		si := g.sampleStream()
		u.Addr = g.memAddr(si)
		if g.spec.Streams[si].PointerChase && class == isa.Load {
			// Serialize on the previous load: distance 1 in load ordering is
			// approximated by a short register dependency.
			u.SrcDist[0] = 1
		}
	case class == isa.Branch:
		slot := int((g.pc/codeBlockBytes)%uint64(len(g.biasDirs))) % len(g.biasDirs)
		if g.rng.float() < g.spec.BranchRandomFrac {
			u.Taken = g.rng.next()&1 == 0
			u.Mispredict = g.rng.next()&1 == 0
		} else {
			u.Taken = g.biasDirs[slot]
			u.Mispredict = false
		}
		if u.Taken {
			g.jump()
		}
	case class == isa.Jump:
		g.jump()
	}
	return u
}

// farJumpFrac is the fraction of control transfers that target a uniformly
// random block of the code footprint; the rest are short jumps (loops and
// nearby calls), matching the strong spatial locality of real code.
const farJumpFrac = 0.05

// localJumpSpanBlocks bounds the reach of a short jump.
const localJumpSpanBlocks = 32

// jump redirects the code walker to a control-transfer target.
func (g *Generator) jump() {
	blocks := g.spec.CodeFootprintBytes / codeBlockBytes
	if blocks < 1 {
		blocks = 1
	}
	var target int
	cur := int((g.pc - g.codeBase) / codeBlockBytes)
	if g.rng.float() < farJumpFrac {
		target = g.rng.intn(blocks)
	} else {
		span := localJumpSpanBlocks
		if span > blocks {
			span = blocks
		}
		// Mostly backwards (loops), within the local span.
		target = cur - g.rng.intn(span)
		if target < 0 {
			target += blocks
		}
	}
	g.pc = g.codeBase + uint64(target%blocks)*codeBlockBytes
}

// OffsetAddresses returns a Reader that relocates all data addresses by the
// given offset, so multiple copies of one benchmark touch disjoint memory.
func OffsetAddresses(g *Generator, offset uint64) Reader {
	return &offsetReader{g: g, off: offset}
}

// Reader is the stream interface the core models consume.
type Reader interface {
	// Next returns the next µop.
	Next() isa.Uop
}

type offsetReader struct {
	g   *Generator
	off uint64
}

// Next implements Reader, relocating data addresses by the offset.
func (r *offsetReader) Next() isa.Uop {
	u := r.g.Next()
	if u.Class.IsMem() {
		u.Addr += r.off
	}
	return u
}
