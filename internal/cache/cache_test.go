package cache

import (
	"testing"
)

func testConfig() Config {
	return Config{Name: "T", SizeBytes: 1 << 12, Assoc: 2, BlockBytes: 64, LatencyCycles: 2}
}

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return c
}

func TestConfigGeometry(t *testing.T) {
	c := testConfig()
	if got := c.Sets(); got != 32 {
		t.Fatalf("Sets() = %d, want 32", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestConfigValidateErrors(t *testing.T) {
	cases := []Config{
		{},
		{SizeBytes: 1024, Assoc: 3, BlockBytes: 64},    // 5.33 sets
		{SizeBytes: 3 << 10, Assoc: 2, BlockBytes: 64}, // 24 sets, not pow2
		{SizeBytes: 1 << 12, Assoc: 2, BlockBytes: 48}, // block not pow2
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, c)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mustNew(t, testConfig())
	if hit, _ := c.Access(0x1000, Read); hit {
		t.Fatal("cold access hit")
	}
	if hit, _ := c.Access(0x1000, Read); !hit {
		t.Fatal("second access missed")
	}
	if c.Stats.Accesses != 2 || c.Stats.Misses != 1 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestSameSetEvictionLRU(t *testing.T) {
	cfg := testConfig() // 32 sets, 2-way; addresses 32*64=2048 apart share a set
	c := mustNew(t, cfg)
	const stride = 2048
	a, b, d := uint64(0), uint64(stride), uint64(2*stride)
	c.Access(a, Read)
	c.Access(b, Read)
	c.Access(a, Read) // a most recent; b is LRU
	c.Access(d, Read) // evicts b
	if hit, _ := c.Access(a, Read); !hit {
		t.Error("a should still be cached (MRU)")
	}
	if hit, _ := c.Access(b, Read); hit {
		t.Error("b should have been evicted (LRU)")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := mustNew(t, testConfig())
	const stride = 2048
	c.Access(0, Write)                         // dirty
	c.Access(stride, Read)                     // clean
	if _, wb := c.Access(2*stride, Read); wb { // evicts LRU = block 0 (dirty)
		if c.Stats.Writebacks != 1 {
			t.Fatalf("writebacks = %d, want 1", c.Stats.Writebacks)
		}
	} else {
		t.Fatal("expected dirty eviction")
	}
}

func TestWriteAllocates(t *testing.T) {
	c := mustNew(t, testConfig())
	c.Access(0x40, Write)
	if hit, _ := c.Access(0x40, Read); !hit {
		t.Fatal("write did not allocate")
	}
}

func TestProbeDoesNotTouch(t *testing.T) {
	c := mustNew(t, testConfig())
	c.Access(0x80, Read)
	before := c.Stats
	if !c.Probe(0x80) {
		t.Fatal("probe missed a cached line")
	}
	if c.Probe(0xdead000) {
		t.Fatal("probe hit an absent line")
	}
	if c.Stats != before {
		t.Fatal("probe changed statistics")
	}
}

func TestFlush(t *testing.T) {
	c := mustNew(t, testConfig())
	c.Access(0, Write)
	c.Access(64, Read)
	if dirty := c.Flush(); dirty != 1 {
		t.Fatalf("Flush dropped %d dirty lines, want 1", dirty)
	}
	if hit, _ := c.Access(0, Read); hit {
		t.Fatal("hit after flush")
	}
}

func TestLinesAllocatedOnFirstAccess(t *testing.T) {
	c := mustNew(t, testConfig())
	allocated := func() (n int) {
		for _, set := range c.sets {
			n += len(set)
		}
		return n
	}
	if c.Probe(0x80) || c.Flush() != 0 || allocated() != 0 {
		t.Fatal("an untouched cache holds lines")
	}
	c.Access(0x80, Read)
	if got := allocated(); got != testConfig().Assoc {
		t.Fatalf("%d lines after one access, want one set of %d", got, testConfig().Assoc)
	}
	// The tag starts right above the set index: addresses Sets×BlockBytes
	// apart share a set and differ in the lowest tag bit only.
	if c.Probe(0x80 + uint64(testConfig().Sets()*testConfig().BlockBytes)) {
		t.Fatal("address in the same set with another tag aliased the cached line")
	}
}

func TestBlockAlignedAccessesSameLine(t *testing.T) {
	c := mustNew(t, testConfig())
	c.Access(0x100, Read)
	for off := uint64(0); off < 64; off++ {
		if hit, _ := c.Access(0x100+off, Read); !hit {
			t.Fatalf("offset %d within block missed", off)
		}
	}
}

func TestBlockAddr(t *testing.T) {
	if BlockAddr(0x1234) != 0x1200 {
		t.Fatalf("BlockAddr(0x1234) = %#x", BlockAddr(0x1234))
	}
	if BlockAddr(0x1200) != 0x1200 {
		t.Fatal("aligned address changed")
	}
}

func TestMissRateStats(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Fatal("idle cache should report zero miss rate")
	}
	s = Stats{Accesses: 4, Misses: 1}
	if s.MissRate() != 0.25 {
		t.Fatalf("miss rate %g", s.MissRate())
	}
}

func TestCapacityHolding(t *testing.T) {
	// A cache of 64 blocks must hold a 64-block working set after warmup.
	cfg := testConfig() // 4 KB / 64 = 64 blocks
	c := mustNew(t, cfg)
	for round := 0; round < 3; round++ {
		for b := uint64(0); b < 64; b++ {
			c.Access(b*64, Read)
		}
	}
	c.Stats = Stats{}
	for b := uint64(0); b < 64; b++ {
		if hit, _ := c.Access(b*64, Read); !hit {
			t.Fatalf("block %d missed within capacity", b)
		}
	}
}
