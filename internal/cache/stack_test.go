package cache

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// naiveLRUMisses simulates a fully-associative LRU cache of the given block
// capacity over the reference stream and counts misses — the oracle the
// stack profiler must agree with at power-of-two capacities.
func naiveLRUMisses(refs []uint64, capacity int) int {
	type node struct{ block uint64 }
	var lru []node // front = MRU
	misses := 0
	for _, b := range refs {
		found := -1
		for i, n := range lru {
			if n.block == b {
				found = i
				break
			}
		}
		if found < 0 {
			misses++
			lru = append([]node{{b}}, lru...)
			if len(lru) > capacity {
				lru = lru[:capacity]
			}
		} else {
			n := lru[found]
			lru = append(lru[:found], lru[found+1:]...)
			lru = append([]node{n}, lru...)
		}
	}
	return misses
}

func TestStackProfilerMatchesNaiveLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	refs := make([]uint64, 3000)
	for i := range refs {
		refs[i] = uint64(rng.Intn(200))
	}
	p := NewStackProfiler(0)
	for _, b := range refs {
		p.Touch(b)
	}
	for _, capacity := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		want := float64(naiveLRUMisses(refs, capacity)) / float64(len(refs))
		got := p.MissRatio(capacity)
		if diff := got - want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("capacity %d: miss ratio %g, naive LRU %g", capacity, got, want)
		}
	}
}

// naiveStackDistance returns the LRU stack distance of each reference (the
// number of distinct blocks touched since the block's previous reference),
// or -1 for a first touch, by keeping the whole LRU stack in a slice.
func naiveStackDistance(refs []uint64) []int {
	var stack []uint64 // front = MRU
	out := make([]int, len(refs))
	for i, b := range refs {
		out[i] = -1
		for d, s := range stack {
			if s == b {
				out[i] = d
				stack = append(stack[:d], stack[d+1:]...)
				break
			}
		}
		stack = append([]uint64{b}, stack...)
	}
	return out
}

// TestStackProfilerExactAcrossRenumbering checks every touch's distance
// bucket against the naive LRU stack on seeded streams long enough to cross
// many timestamp renumberings, with working sets below, near and above the
// initial timestamp range so the tree also grows mid-stream.
func TestStackProfilerExactAcrossRenumbering(t *testing.T) {
	for _, blocks := range []int{7, 300, 900, 5000} {
		rng := rand.New(rand.NewSource(int64(blocks)))
		refs := make([]uint64, 12*minStackSlots)
		for i := range refs {
			// A hot subset plus a uniform tail gives short and long distances.
			if rng.Intn(2) == 0 {
				refs[i] = uint64(rng.Intn(1+blocks/16)) << 6
			} else {
				refs[i] = uint64(rng.Intn(blocks)) << 6
			}
		}
		want := naiveStackDistance(refs)
		p := NewStackProfiler(0)
		renumbers := 0
		for i, b := range refs {
			before := p.Checkpoint()
			clock := p.clock
			p.Touch(b)
			if p.clock <= clock {
				renumbers++
			}
			got := -1
			for k := range p.hist {
				if p.hist[k] != before.hist[k] {
					got = k
				}
			}
			wantBucket := -1
			if want[i] >= 0 {
				wantBucket = bits.Len(uint(want[i]))
			}
			if got != wantBucket {
				t.Fatalf("%d blocks, touch %d (block %#x): bucket %d, naive distance %d (bucket %d)",
					blocks, i, b, got, want[i], wantBucket)
			}
		}
		if renumbers < 3 {
			t.Errorf("%d blocks: stream crossed only %d renumberings", blocks, renumbers)
		}
		if size := len(p.tree) - 1; size > 4*max(p.DistinctBlocks(), minStackSlots) {
			t.Errorf("%d blocks: %d timestamp slots for %d distinct blocks", blocks, size, p.DistinctBlocks())
		}
	}
}

// TestStackProfilerSteadyStateAllocs: once every block has been seen, a
// touch allocates nothing, renumberings included.
func TestStackProfilerSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	refs := make([]uint64, 1<<14)
	for i := range refs {
		refs[i] = uint64(rng.Intn(2000)) << 6
	}
	p := NewStackProfiler(0)
	for _, b := range refs {
		p.Touch(b)
	}
	for b := uint64(0); b < 2000; b++ { // make sure every block is known
		p.Touch(b << 6)
	}
	i := 0
	allocs := testing.AllocsPerRun(len(refs), func() {
		p.Touch(refs[i%len(refs)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("%g allocations per steady-state touch, want 0", allocs)
	}
}

func TestStackProfilerSequential(t *testing.T) {
	// A strict streaming pattern never reuses: every access is a miss at any
	// capacity.
	p := NewStackProfiler(0)
	for b := uint64(0); b < 1000; b++ {
		p.Touch(b)
	}
	for _, capacity := range []int{1, 64, 1 << 20} {
		if got := p.MissRatio(capacity); got != 1 {
			t.Errorf("streaming miss ratio at %d = %g, want 1", capacity, got)
		}
	}
}

func TestStackProfilerLoop(t *testing.T) {
	// Looping over N blocks: hits once capacity >= N, all misses below
	// (classic LRU cliff).
	const n = 64
	p := NewStackProfiler(0)
	for round := 0; round < 10; round++ {
		for b := uint64(0); b < n; b++ {
			p.Touch(b)
		}
	}
	if got := p.MissRatio(n); got > 0.11 {
		t.Errorf("loop fits at capacity %d but miss ratio %g", n, got)
	}
	if got := p.MissRatio(n / 2); got != 1 {
		t.Errorf("LRU loop thrash below capacity should miss always, got %g", got)
	}
}

func TestCheckpointDelta(t *testing.T) {
	p := NewStackProfiler(0)
	// Warmup: streaming garbage.
	for b := uint64(10000); b < 11000; b++ {
		p.Touch(b)
	}
	snap := p.Checkpoint()
	// Measured window: tight 8-block loop, all hits after the first touches.
	for round := 0; round < 100; round++ {
		for b := uint64(0); b < 8; b++ {
			p.Touch(b)
		}
	}
	if got := p.MissRatioSince(snap, 8); got > 0.02 {
		t.Errorf("post-checkpoint miss ratio %g, want ~0.01 (cold only)", got)
	}
	// Without the checkpoint the warmup stream dominates.
	if got := p.MissRatio(8); got < 0.5 {
		t.Errorf("full-window ratio %g should include warmup misses", got)
	}
}

func TestAccessorCounts(t *testing.T) {
	p := NewStackProfiler(0)
	for i := 0; i < 10; i++ {
		p.Touch(uint64(i % 3))
	}
	if p.Accesses() != 10 {
		t.Fatalf("accesses %d", p.Accesses())
	}
	if p.DistinctBlocks() != 3 {
		t.Fatalf("distinct %d", p.DistinctBlocks())
	}
}

func TestMissCurveAt(t *testing.T) {
	c := MissCurve{Capacities: []int{64, 128, 256}, Ratios: []float64{0.8, 0.4, 0.1}}
	if !c.Valid() {
		t.Fatal("curve should be valid")
	}
	cases := []struct {
		cap  float64
		want float64
	}{
		{0, 0.8}, {64, 0.8}, {96, 0.6}, {128, 0.4}, {192, 0.25}, {256, 0.1}, {1e9, 0.1},
		{64.5, 0.8 - 0.4*0.5/64}, // regression: used to index [-1]
	}
	for _, tc := range cases {
		got := c.At(tc.cap)
		if diff := got - tc.want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("At(%g) = %g, want %g", tc.cap, got, tc.want)
		}
	}
}

// referenceAt is MissCurve.At as written with sort.Search: the oracle the
// closure-free binary search must match bit for bit.
func referenceAt(c MissCurve, capacityBlocks float64) float64 {
	n := len(c.Capacities)
	if n == 0 {
		return 0
	}
	if math.IsNaN(capacityBlocks) {
		return math.NaN()
	}
	if capacityBlocks <= float64(c.Capacities[0]) {
		return c.Ratios[0]
	}
	if capacityBlocks >= float64(c.Capacities[n-1]) {
		return c.Ratios[n-1]
	}
	i := sort.Search(n, func(j int) bool { return float64(c.Capacities[j]) >= capacityBlocks })
	if i == 0 {
		return c.Ratios[0]
	}
	lo, hi := float64(c.Capacities[i-1]), float64(c.Capacities[i])
	f := (capacityBlocks - lo) / (hi - lo)
	return c.Ratios[i-1] + f*(c.Ratios[i]-c.Ratios[i-1])
}

// TestMissCurveAtMatchesReference: on random ascending curves of 0 to 40
// points, At is bitwise equal to referenceAt at every sampled capacity,
// between neighbours, below and above the range, and at NaN and ±Inf.
func TestMissCurveAtMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := trial % 41
		c := MissCurve{Capacities: make([]int, n), Ratios: make([]float64, n)}
		capacity, ratio := rng.Intn(64), 1.0
		for i := 0; i < n; i++ {
			capacity += 1 + rng.Intn(1<<uint(rng.Intn(16)))
			// Steep drops matter: a + (b-a) rounds away from b only when
			// the neighbours differ by more than a factor of two.
			ratio *= rng.Float64()
			c.Capacities[i], c.Ratios[i] = capacity, ratio
		}
		if !c.Valid() {
			t.Fatalf("trial %d: generated an invalid curve %+v", trial, c)
		}
		queries := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1}
		for i, cp := range c.Capacities {
			x := float64(cp)
			queries = append(queries, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
			if i+1 < n {
				next := float64(c.Capacities[i+1])
				queries = append(queries, (x+next)/2, x+rng.Float64()*(next-x))
			}
		}
		if n > 0 {
			first, last := float64(c.Capacities[0]), float64(c.Capacities[n-1])
			queries = append(queries, first-1-rng.Float64()*first, last+1+rng.Float64()*last)
		}
		for _, q := range queries {
			got, want := c.At(q), referenceAt(c, q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: At(%v) = %v, reference %v on %+v", trial, q, got, want, c)
			}
		}
	}
}

func TestMissCurveAtEmpty(t *testing.T) {
	var c MissCurve
	if c.At(100) != 0 {
		t.Fatal("empty curve should return 0")
	}
}

func TestMissCurveValidRejects(t *testing.T) {
	bad := []MissCurve{
		{Capacities: []int{1, 2}, Ratios: []float64{0.5}},      // length mismatch
		{Capacities: []int{2, 1}, Ratios: []float64{0.5, 0.4}}, // not ascending
		{Capacities: []int{1, 2}, Ratios: []float64{0.4, 0.5}}, // increasing ratio
		{Capacities: []int{1}, Ratios: []float64{1.5}},         // ratio > 1
		{Capacities: []int{1}, Ratios: []float64{-0.1}},        // ratio < 0
	}
	for i, c := range bad {
		if c.Valid() {
			t.Errorf("case %d: invalid curve accepted", i)
		}
	}
}

func TestMissRatioMonotonicProperty(t *testing.T) {
	// Property: for any reference stream, miss ratio is non-increasing in
	// capacity (LRU inclusion property).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewStackProfiler(0)
		for i := 0; i < 500; i++ {
			p.Touch(uint64(rng.Intn(100)))
		}
		prev := 1.1
		for c := 1; c <= 256; c *= 2 {
			r := p.MissRatio(c)
			if r > prev+1e-12 {
				return false
			}
			prev = r
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
