// Package cache implements set-associative caches with LRU replacement, the
// private/shared hierarchy used by the core models, and a stack-distance
// profiler that produces miss-rate-versus-capacity curves for the interval
// engine.
package cache

import (
	"errors"
	"fmt"
	"math/bits"

	"smtflex/internal/isa"
	"smtflex/internal/machstats"
)

// ErrBadConfig is wrapped by every cache-geometry validation failure.
var ErrBadConfig = errors.New("cache: invalid geometry")

// AccessKind distinguishes reads from writes for statistics and write
// allocation policy.
type AccessKind uint8

const (
	// Read is a data read or instruction fetch.
	Read AccessKind = iota
	// Write is a data write.
	Write
)

// Stats accumulates access counts for one cache.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// MissRate returns misses per access, or zero for an idle cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Publish adds the stats to the machine-counter registry under scope (e.g.
// "cache.l1d" yields cache.l1d.accesses, .misses, .writebacks). A no-op
// costing one atomic load while machstats is disabled.
func (s Stats) Publish(scope string) {
	if !machstats.Enabled() {
		return
	}
	machstats.Add(scope+".accesses", s.Accesses)
	machstats.Add(scope+".misses", s.Misses)
	machstats.Add(scope+".writebacks", s.Writebacks)
}

// Config describes one cache level.
type Config struct {
	// Name is used in stat dumps ("L1I", "L1D", "L2", "LLC").
	Name string
	// SizeBytes is total capacity.
	SizeBytes int
	// Assoc is the set associativity.
	Assoc int
	// BlockBytes is the line size; all levels use isa.MemBlockSize.
	BlockBytes int
	// LatencyCycles is the hit latency.
	LatencyCycles int
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int {
	if c.SizeBytes <= 0 || c.Assoc <= 0 || c.BlockBytes <= 0 {
		return 0
	}
	return c.SizeBytes / (c.Assoc * c.BlockBytes)
}

// Validate reports whether the geometry is usable: positive sizes and a
// power-of-two number of sets (required for bit-sliced indexing). Every
// failure wraps ErrBadConfig.
func (c Config) Validate() error {
	if err := c.validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return nil
}

func (c Config) validate() error {
	n := c.Sets()
	if n <= 0 {
		return fmt.Errorf("cache %s: non-positive set count (size=%d assoc=%d block=%d)",
			c.Name, c.SizeBytes, c.Assoc, c.BlockBytes)
	}
	if n&(n-1) != 0 {
		return fmt.Errorf("cache %s: set count %d is not a power of two", c.Name, n)
	}
	if c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("cache %s: block size %d is not a power of two", c.Name, c.BlockBytes)
	}
	return nil
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	// lru is a per-set stamp; higher is more recent.
	lru uint64
}

// Cache is a set-associative write-back, write-allocate cache with true LRU
// replacement.
type Cache struct {
	cfg Config
	// sets[s] holds set s's lines, allocated on the set's first access, so a
	// cache that an idealized core never reaches holds no lines.
	sets     [][]line
	setShift uint
	setMask  uint64
	stamp    uint64
	// Stats is exported state; callers may reset it between phases.
	Stats Stats
}

// New builds a cache from cfg. An invalid geometry fails with an error
// wrapping ErrBadConfig instead of panicking, so one bad design point cannot
// take down a process evaluating many.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Sets()
	return &Cache{
		cfg:      cfg,
		sets:     make([][]line, n),
		setShift: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
		setMask:  uint64(n - 1),
	}, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Latency returns the hit latency in cycles.
func (c *Cache) Latency() int { return c.cfg.LatencyCycles }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	block := addr >> c.setShift
	return int(block & c.setMask), block >> bits.Len64(c.setMask)
}

// Access looks up addr, allocating on miss. It returns hit=true on a hit and
// evictedDirty=true when the allocation evicted a dirty line (a writeback).
func (c *Cache) Access(addr uint64, kind AccessKind) (hit, evictedDirty bool) {
	c.Stats.Accesses++
	c.stamp++
	set, tag := c.index(addr)
	lines := c.sets[set]
	if lines == nil {
		lines = make([]line, c.cfg.Assoc)
		c.sets[set] = lines
	}
	victim := 0
	for i := range lines {
		ln := &lines[i]
		if ln.valid && ln.tag == tag {
			ln.lru = c.stamp
			if kind == Write {
				ln.dirty = true
			}
			return true, false
		}
		if !ln.valid {
			victim = i
		} else if lines[victim].valid && ln.lru < lines[victim].lru {
			victim = i
		}
	}
	c.Stats.Misses++
	v := &lines[victim]
	evictedDirty = v.valid && v.dirty
	if evictedDirty {
		c.Stats.Writebacks++
	}
	v.valid = true
	v.tag = tag
	v.dirty = kind == Write
	v.lru = c.stamp
	return false, evictedDirty
}

// Probe reports whether addr currently hits, without updating LRU state or
// statistics. Used by tests and by the scheduler's footprint estimation.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	for _, ln := range c.sets[set] {
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

// Flush invalidates all lines and returns the number of dirty lines dropped.
func (c *Cache) Flush() int {
	dirty := 0
	for _, set := range c.sets {
		for i, ln := range set {
			if ln.valid && ln.dirty {
				dirty++
			}
			set[i] = line{}
		}
	}
	return dirty
}

// BlockAddr returns the block-aligned address for addr.
func BlockAddr(addr uint64) uint64 {
	return addr &^ uint64(isa.MemBlockSize-1)
}
