package cache

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// StackProfiler computes LRU stack distances (Mattson's algorithm) over a
// block-address reference stream. One pass yields the miss ratio of every
// power-of-two fully-associative LRU cache size simultaneously, which the
// interval engine turns into a miss-rate-versus-capacity curve for modelling
// cache capacity contention.
//
// Distances are recorded in power-of-two buckets: bucket b counts accesses
// with stack distance d where bits.Len(d) == b, so the miss ratio at any
// power-of-two capacity is exact. A Fenwick tree over access timestamps
// marks each block's latest one; a stack distance is the number of marks
// after the block's previous access. A touch is O(log n) in the n distinct
// blocks and allocates nothing once all are seen; when the timestamps run
// out, the live ones are renumbered 1..n, keeping the tree O(n).
type StackProfiler struct {
	id    map[uint64]int32 // block -> dense block id
	stamp []uint32         // block id -> timestamp of its latest access
	owner []int32          // timestamp (1-based) -> block id touched then
	// tree is a Fenwick tree over timestamps 1..len(tree)-1 holding 1 at
	// every block's latest timestamp.
	tree  []int32
	clock uint32 // last timestamp issued
	// hist[b] counts accesses whose stack distance d has bits.Len64(d)==b.
	hist  [65]uint64
	cold  uint64 // first-touch accesses (infinite distance)
	total uint64 // all accesses
}

// minStackSlots is the smallest timestamp range the profiler keeps.
const minStackSlots = 1 << 10

// NewStackProfiler returns an empty profiler. The argument is retained for
// compatibility and ignored; bucketing makes the resolution unbounded.
func NewStackProfiler(int) *StackProfiler {
	return &StackProfiler{id: make(map[uint64]int32)}
}

// Touch records an access to block (a block-aligned address or block id).
func (p *StackProfiler) Touch(block uint64) {
	p.total++
	if int(p.clock)+1 >= len(p.tree) {
		p.renumber()
	}
	p.clock++
	id, seen := p.id[block]
	if seen {
		// The stack distance is the number of live timestamps after prev.
		prev := p.stamp[id]
		p.hist[bits.Len64(uint64(len(p.stamp)-int(p.prefix(prev))))]++
		p.add(prev, -1)
		p.stamp[id] = p.clock
	} else {
		p.cold++
		id = int32(len(p.stamp))
		p.id[block] = id
		p.stamp = append(p.stamp, p.clock)
	}
	p.owner[p.clock] = id
	p.add(p.clock, 1)
}

// prefix returns the number of live timestamps in 1..t.
func (p *StackProfiler) prefix(t uint32) int32 {
	var sum int32
	for i := int(t); i > 0; i &= i - 1 {
		sum += p.tree[i]
	}
	return sum
}

// add adds v at timestamp t.
func (p *StackProfiler) add(t uint32, v int32) {
	for i := int(t); i < len(p.tree); i += i & -i {
		p.tree[i] += v
	}
}

// renumber maps the live timestamps, in order, onto 1..n and rebuilds the
// tree with at least n free timestamps. Stack distances depend only on the
// order of timestamps, so they are unchanged.
func (p *StackProfiler) renumber() {
	n := uint32(0)
	for t := uint32(1); t <= p.clock; t++ {
		if id := p.owner[t]; p.stamp[id] == t {
			n++
			p.stamp[id] = n
			p.owner[n] = id
		}
	}
	if size := len(p.tree) - 1; size < 2*int(n) || size < minStackSlots {
		size = max(4*int(n), minStackSlots)
		p.owner = slices.Grow(p.owner, size+1-len(p.owner))[:size+1]
		p.tree = make([]int32, size+1)
	}
	// Node i covers timestamps (i-lowbit(i), i]; ones fill exactly 1..n.
	for i := 1; i < len(p.tree); i++ {
		p.tree[i] = int32(max(min(i, int(n))-(i-i&-i), 0))
	}
	p.clock = n
}

// Accesses returns the total number of touches recorded.
func (p *StackProfiler) Accesses() uint64 { return p.total }

// DistinctBlocks returns the number of distinct blocks seen.
func (p *StackProfiler) DistinctBlocks() int { return len(p.stamp) }

// Snapshot captures the profiler's counters so a later window can be
// measured as a delta (used to exclude warmup).
type Snapshot struct {
	hist  [65]uint64
	cold  uint64
	total uint64
}

// Checkpoint returns the current counters.
func (p *StackProfiler) Checkpoint() Snapshot {
	return Snapshot{hist: p.hist, cold: p.cold, total: p.total}
}

// MissRatio returns the fraction of accesses that miss in a fully
// associative LRU cache of the given capacity in blocks. Capacities are
// rounded down to a power of two (the bucket resolution).
func (p *StackProfiler) MissRatio(capacityBlocks int) float64 {
	return p.MissRatioSince(Snapshot{}, capacityBlocks)
}

// MissRatioSince is MissRatio restricted to the accesses recorded after the
// snapshot was taken.
func (p *StackProfiler) MissRatioSince(s Snapshot, capacityBlocks int) float64 {
	total := p.total - s.total
	if total == 0 {
		return 0
	}
	// A capacity of c blocks hits all accesses with distance d < c. With
	// power-of-two c, those are exactly buckets 0..log2(c).
	maxHitBucket := -1
	if capacityBlocks >= 1 {
		maxHitBucket = bits.Len64(uint64(capacityBlocks)) - 1
	}
	misses := p.cold - s.cold
	for b := maxHitBucket + 1; b < len(p.hist); b++ {
		misses += p.hist[b] - s.hist[b]
	}
	return float64(misses) / float64(total)
}

// MissRatioCurve samples the miss ratio at each capacity (in blocks) in
// caps for accesses after snapshot s, and returns a piecewise-linear curve.
func (p *StackProfiler) MissRatioCurve(s Snapshot, caps []int) MissCurve {
	sorted := append([]int(nil), caps...)
	sort.Ints(sorted)
	curve := MissCurve{Capacities: sorted, Ratios: make([]float64, len(sorted))}
	for i, c := range sorted {
		curve.Ratios[i] = p.MissRatioSince(s, c)
	}
	return curve
}

// MissCurve is a piecewise-linear miss-ratio-versus-capacity curve.
// Capacities are in cache blocks, ascending.
type MissCurve struct {
	Capacities []int
	Ratios     []float64
}

// At interpolates the miss ratio at the given capacity in blocks. Outside
// the sampled range it clamps to the end values; an empty curve returns 0. A
// NaN capacity yields NaN rather than a panic, so corrupted state reaches
// the contention solver's divergence detection instead of unwinding the
// stack.
func (c MissCurve) At(capacityBlocks float64) float64 {
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
	// Binary search for the first capacity >= capacityBlocks, written out
	// because sort.Search's closure call showed in solver profiles. The
	// clamps above guarantee 0 < i < n.
	i, j := 0, n
	for i < j {
		h := int(uint(i+j) >> 1)
		if float64(c.Capacities[h]) < capacityBlocks {
			i = h + 1
		} else {
			j = h
		}
	}
	// c.Capacities[i-1] < capacityBlocks <= c.Capacities[i]
	lo, hi := float64(c.Capacities[i-1]), float64(c.Capacities[i])
	f := (capacityBlocks - lo) / (hi - lo)
	return c.Ratios[i-1] + f*(c.Ratios[i]-c.Ratios[i-1])
}

// Valid reports whether the curve is well formed: same lengths, ascending
// capacities, ratios within [0,1] and non-increasing.
func (c MissCurve) Valid() bool {
	if len(c.Capacities) != len(c.Ratios) {
		return false
	}
	for i := range c.Capacities {
		if c.Ratios[i] < 0 || c.Ratios[i] > 1 {
			return false
		}
		if i > 0 {
			if c.Capacities[i] <= c.Capacities[i-1] {
				return false
			}
			if c.Ratios[i] > c.Ratios[i-1]+1e-12 {
				return false
			}
		}
	}
	return true
}
