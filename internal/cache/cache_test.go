package cache

import (
	"testing"
	"testing/quick"
)

func newHierarchy(fast bool) *Cache {
	return New(200, fast,
		Config{Name: "L1", SizeBytes: 32 << 10, Ways: 8, HitLatency: 4},
		Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8, HitLatency: 12},
		Config{Name: "LLC", SizeBytes: 8 << 20, Ways: 16, HitLatency: 38},
	)
}

func TestMissThenHitLatency(t *testing.T) {
	c := newHierarchy(true)
	cold := c.Access(0x1000)
	want := uint64(4 + 12 + 38 + 200)
	if cold != want {
		t.Errorf("cold access = %d cycles, want %d", cold, want)
	}
	warm := c.Access(0x1000)
	if warm != 4 {
		t.Errorf("warm access = %d cycles, want 4", warm)
	}
	// Same line, different offset: still a hit.
	if lat := c.Access(0x1038); lat != 4 {
		t.Errorf("same-line access = %d cycles, want 4", lat)
	}
	// Next line: miss.
	if lat := c.Access(0x1040); lat <= 4 {
		t.Errorf("next-line access = %d cycles, want miss", lat)
	}
}

func TestFlushEvictsAllLevels(t *testing.T) {
	c := newHierarchy(true)
	c.Access(0x2000)
	if !c.Probe(0x2000) || !c.Next.Probe(0x2000) || !c.Next.Next.Probe(0x2000) {
		t.Fatal("fill did not propagate to all levels")
	}
	c.Flush(0x2010) // same line via different offset
	if c.Probe(0x2000) || c.Next.Probe(0x2000) || c.Next.Next.Probe(0x2000) {
		t.Error("flush left the line somewhere")
	}
	// Access after flush pays full latency again.
	if lat := c.Access(0x2000); lat != 4+12+38+200 {
		t.Errorf("post-flush access = %d", lat)
	}
}

func TestFlushAllOnlyThisLevel(t *testing.T) {
	c := newHierarchy(true)
	c.Access(0x3000)
	c.FlushAll() // L1 only — the L1TF mitigation
	if c.Probe(0x3000) {
		t.Error("L1 still holds line after FlushAll")
	}
	if !c.Next.Probe(0x3000) {
		t.Error("L2 should retain line after L1-only flush")
	}
	// Refill from L2 is cheaper than from memory.
	lat := c.Access(0x3000)
	if lat != 4+12 {
		t.Errorf("refill from L2 = %d cycles, want 16", lat)
	}
}

func TestLRUEviction(t *testing.T) {
	// Tiny direct-mapped-ish cache: 2 ways, 2 sets (256 B).
	c := New(100, true, Config{Name: "T", SizeBytes: 256, Ways: 2, HitLatency: 1})
	if c.Sets() != 2 || c.Ways() != 2 {
		t.Fatalf("geometry %d sets × %d ways", c.Sets(), c.Ways())
	}
	// Three lines mapping to set 0: line addresses stride = sets*LineSize = 128.
	a, b, d := uint64(0), uint64(128), uint64(256)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is now MRU
	c.Access(d) // evicts b (LRU)
	if !c.Probe(a) {
		t.Error("a evicted but was MRU")
	}
	if c.Probe(b) {
		t.Error("b survived but was LRU")
	}
	if !c.Probe(d) {
		t.Error("d not inserted")
	}
}

func TestTouchChargesNothingButFills(t *testing.T) {
	c := newHierarchy(true)
	c.Touch(0x4000)
	if !c.Probe(0x4000) {
		t.Fatal("touch did not fill L1")
	}
	if !c.Next.Next.Probe(0x4000) {
		t.Fatal("touch did not fill LLC")
	}
	if lat := c.Access(0x4000); lat != 4 {
		t.Errorf("access after touch = %d, want hit", lat)
	}
}

func TestStats(t *testing.T) {
	c := newHierarchy(true)
	c.Access(0x100)
	c.Access(0x100)
	c.Access(0x100)
	if c.Hits != 2 || c.Misses != 1 {
		t.Errorf("L1 stats = %d hits / %d misses, want 2/1", c.Hits, c.Misses)
	}
	c.ResetStats()
	if c.Hits != 0 || c.Misses != 0 || c.Next.Hits != 0 {
		t.Error("ResetStats left counters")
	}
}

func TestContents(t *testing.T) {
	c := New(100, true, Config{Name: "T", SizeBytes: 512, Ways: 2, HitLatency: 1})
	c.Access(0x40)
	c.Access(0x80)
	got := c.Contents()
	want := map[uint64]bool{0x40: true, 0x80: true}
	if len(got) != 2 {
		t.Fatalf("contents = %v", got)
	}
	for _, pa := range got {
		if !want[pa] {
			t.Errorf("unexpected line %#x", pa)
		}
	}
}

// Property: probe(pa) is true immediately after access(pa), and flush
// makes it false, for arbitrary addresses.
func TestAccessProbeFlushProperty(t *testing.T) {
	c := newHierarchy(true)
	f := func(pa uint64) bool {
		pa &= 0xffff_ffff // keep page-realistic
		c.Access(pa)
		if !c.Probe(pa) {
			return false
		}
		c.Flush(pa)
		return !c.Probe(pa)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: flush+reload timing distinguishes cached from uncached lines,
// the primitive all the attacks rely on.
func TestFlushReloadDistinguishable(t *testing.T) {
	c := newHierarchy(true)
	secretLine := uint64(0x10000)
	otherLine := uint64(0x20000)
	c.Flush(secretLine)
	c.Flush(otherLine)
	c.Touch(secretLine) // "victim" touched this transiently
	hot := c.Access(secretLine)
	cold := c.Access(otherLine)
	if hot >= cold {
		t.Errorf("hot (%d) should be faster than cold (%d)", hot, cold)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid geometry")
		}
	}()
	New(100, true, Config{Name: "bad", SizeBytes: 64, Ways: 8, HitLatency: 1})
}
