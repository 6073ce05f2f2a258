// Package cache models a set-associative cache hierarchy with cycle
// accounting. Caches track tags only; data always lives in physical
// memory. Tag state is all that transient-execution side channels need:
// FLUSH+RELOAD observes hit/miss latency, and the L1TF attack leaks
// whatever physical line currently resides in the L1.
//
// # Memory-path fast path
//
// Two host-side optimisations keep the simulated model byte-identical
// while removing the dominant per-access costs (the fast argument of New
// and Reset toggles both; the -memfast ablation flag passes it down):
//
//   - Epoch-stamped invalidation. Every line carries the validity epoch
//     it was filled under; a line is live only when its epoch matches
//     the level's current epoch. FlushAll and Reset then invalidate the
//     whole level by bumping the epoch — O(1) instead of O(lines) — the
//     exact discipline the L1TF mitigation needs, since it flushes the
//     L1 on every VM entry and the real hardware pays O(1) for that,
//     not a walk over 4096 tag slots. Probe, Contents, Flush and the
//     replacement scan all consult the epoch, so post-flush state is
//     indistinguishable from the eager-clear implementation.
//   - MRU way hints. Each set remembers the way of its most recent hit
//     or fill; repeat hits check that way first and skip the way scan.
//     The hint is only a hint — tag, valid bit and epoch are verified
//     before use — so the hit/miss outcome, LRU updates and statistics
//     are exactly those of the full scan (a tag can occupy at most one
//     way per level, making "the hinted match" and "the scanned match"
//     the same line).
package cache

import "fmt"

// LineSize is the cache line size in bytes.
const LineSize = 64

// LineShift is log2(LineSize).
const LineShift = 6

// LineBase returns the line-aligned base of a physical address.
func LineBase(pa uint64) uint64 { return pa &^ uint64(LineSize-1) }

// Cache is one level of a physically-tagged set-associative cache with
// LRU replacement. Levels are chained through Next; the last level's
// misses cost MemLatency.
type Cache struct {
	Name       string
	HitLatency uint64 // cycles for a hit at this level
	MemLatency uint64 // cycles for a miss past the last level (only used when Next == nil)
	Next       *Cache

	sets int
	ways int
	mask uint64 // sets-1 when sets is a power of two, else 0 with pow2 false
	pow2 bool
	fast bool // fixed by New/Reset
	// lines[set] holds that set's ways, allocated lazily on the first
	// insert into the set (and the outer slice on the first insert into
	// the level). Most cores touch a tiny fraction of the outer levels —
	// the LLC alone is 128K ways — and eagerly zeroing megabytes of tag
	// state per core dominated construction cost in profiles. An empty
	// set and an unallocated one are indistinguishable, so laziness is
	// invisible to the simulation.
	lines [][]cacheLine
	// mru[set] is 1+way of the set's most recent hit or fill (0 = no
	// hint). Purely a host-side accelerator: every use re-validates the
	// hinted line, so a stale hint costs one extra compare, never a
	// wrong answer. Allocated alongside lines.
	mru []uint16

	// epoch is the level's current validity epoch. A line is live only
	// when line.epoch == epoch; FlushAll and Reset invalidate in O(1) by
	// bumping it (fast path) or eagerly clear valid bits (reference
	// path) — the two representations satisfy the same liveness
	// predicate, so they can be mixed freely.
	epoch uint64

	// Statistics.
	Hits, Misses uint64

	clock uint64 // LRU timestamp source
}

type cacheLine struct {
	valid bool
	tag   uint64 // line base physical address
	used  uint64 // LRU timestamp
	epoch uint64 // validity epoch the line was filled under
}

// Config describes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	HitLatency uint64
}

// New builds a cache hierarchy from outermost-first configs (L1 first).
// memLatency is the cost of missing all levels; fast selects the
// memory-path fast path (epoch-bump flushes and MRU way hints) for every
// level. Both modes produce byte-identical simulated state.
//
// New panics on an invalid geometry (fewer than one set). Cache configs
// come from the static CPU model definitions registered at package init,
// so a bad geometry is a programming bug surfaced the first time the
// model is constructed — it can never be triggered by experiment input
// at runtime, which is why this is a panic rather than an error return.
func New(memLatency uint64, fast bool, levels ...Config) *Cache {
	var first, prev *Cache
	for _, cfg := range levels {
		sets := cfg.SizeBytes / LineSize / cfg.Ways
		if sets < 1 {
			panic(fmt.Sprintf("cache %s: invalid geometry", cfg.Name))
		}
		c := &Cache{
			Name:       cfg.Name,
			HitLatency: cfg.HitLatency,
			sets:       sets,
			ways:       cfg.Ways,
			fast:       fast,
		}
		if sets&(sets-1) == 0 {
			c.mask = uint64(sets - 1)
			c.pow2 = true
		}
		if prev != nil {
			prev.Next = c
		} else {
			first = c
		}
		prev = c
	}
	if prev != nil {
		prev.MemLatency = memLatency
	}
	return first
}

func (c *Cache) setIndex(pa uint64) int {
	if c.pow2 {
		return int((pa >> LineShift) & c.mask)
	}
	return int((pa >> LineShift) % uint64(c.sets))
}

// set returns pa's set, or nil when it has never been filled.
func (c *Cache) set(pa uint64) []cacheLine {
	if c.lines == nil {
		return nil
	}
	return c.lines[c.setIndex(pa)]
}

// live reports whether a line currently holds a valid fill.
func (c *Cache) live(l *cacheLine) bool {
	return l.valid && l.epoch == c.epoch
}

// lookup returns the way holding pa's line, or nil. At most one way per
// set can hold a given tag (fills happen only after a full-scan miss),
// so serving the lookup from the MRU hint when it validates is
// indistinguishable from the scan.
func (c *Cache) lookup(pa uint64) *cacheLine {
	if c.lines == nil {
		return nil
	}
	idx := c.setIndex(pa)
	set := c.lines[idx]
	if set == nil {
		return nil
	}
	tag := LineBase(pa)
	if c.fast {
		if w := c.mru[idx]; w != 0 {
			l := &set[w-1]
			if l.valid && l.epoch == c.epoch && l.tag == tag {
				return l
			}
		}
	}
	for i := range set {
		if set[i].valid && set[i].epoch == c.epoch && set[i].tag == tag {
			if c.fast {
				c.mru[idx] = uint16(i + 1)
			}
			return &set[i]
		}
	}
	return nil
}

// insert fills pa's line, evicting LRU if needed. Dead ways — never
// filled, eagerly invalidated, or stamped with a stale epoch — are
// claimed first, in way order, exactly as the eager-clear implementation
// claimed `!valid` ways.
func (c *Cache) insert(pa uint64) {
	if c.lines == nil {
		c.lines = make([][]cacheLine, c.sets)
		c.mru = make([]uint16, c.sets)
	}
	idx := c.setIndex(pa)
	set := c.lines[idx]
	if set == nil {
		set = make([]cacheLine, c.ways)
		c.lines[idx] = set
	}
	tag := LineBase(pa)
	victim := &set[0]
	way := 0
	for i := range set {
		if !c.live(&set[i]) {
			victim = &set[i]
			way = i
			break
		}
		if set[i].used < victim.used {
			victim = &set[i]
			way = i
		}
	}
	c.clock++
	*victim = cacheLine{valid: true, tag: tag, used: c.clock, epoch: c.epoch}
	c.mru[idx] = uint16(way + 1)
}

// Access simulates a load or store of the line containing pa and returns
// the access latency in cycles. On a miss the line is filled at this and
// all inner levels (inclusive hierarchy).
//
// The walk is iterative and allocation-free: one downward pass
// accumulates per-level charges until the first hitting level (or
// memory), then a second pass fills every level that missed. Per-level
// state (clock, statistics, tag arrays) is independent across levels, so
// the flattened walk is state-identical to the recursive one.
func (c *Cache) Access(pa uint64) uint64 {
	var lat uint64
	hitLevel := (*Cache)(nil)
	for lvl := c; lvl != nil; lvl = lvl.Next {
		lat += lvl.HitLatency
		if line := lvl.lookup(pa); line != nil {
			lvl.clock++
			line.used = lvl.clock
			lvl.Hits++
			hitLevel = lvl
			break
		}
		lvl.Misses++
		if lvl.Next == nil {
			lat += lvl.MemLatency
		}
	}
	for lvl := c; lvl != hitLevel; lvl = lvl.Next {
		lvl.insert(pa)
	}
	return lat
}

// Probe reports whether pa's line is present at this level, without
// disturbing LRU or statistics. This is the simulator-internal primitive
// behind timing probes and the L1TF leak.
func (c *Cache) Probe(pa uint64) bool { return c.lookup(pa) != nil }

// Touch fills pa's line at this level and all inner levels without
// charging latency (used for prefetch-style fills during transient
// execution, where the committed instruction stream never waits).
func (c *Cache) Touch(pa uint64) {
	for lvl := c; lvl != nil; lvl = lvl.Next {
		if lvl.lookup(pa) == nil {
			lvl.insert(pa)
		}
	}
}

// Flush evicts pa's line from this level and all inner levels (clflush).
func (c *Cache) Flush(pa uint64) {
	for lvl := c; lvl != nil; lvl = lvl.Next {
		if set := lvl.set(pa); set != nil {
			tag := LineBase(pa)
			for i := range set {
				if set[i].valid && set[i].tag == tag {
					set[i].valid = false
				}
			}
		}
	}
}

// FlushAll invalidates every line at this level only (the L1TF mitigation
// flushes just the L1). On the fast path this is a single epoch bump —
// O(1) regardless of how many lines are allocated — which matters
// because the L1TF mitigation flushes on every VM entry and the
// simulator must charge the flush's simulated cycles, not an O(cache)
// host walk. The reference path clears valid bits in place; both leave
// every line dead under the same liveness predicate.
func (c *Cache) FlushAll() {
	if c.fast {
		c.epoch++
		return
	}
	for _, set := range c.lines {
		for i := range set {
			set[i].valid = false
		}
	}
}

// FlushAllLevels invalidates this and all inner levels.
func (c *Cache) FlushAllLevels() {
	c.FlushAll()
	if c.Next != nil {
		c.Next.FlushAllLevels()
	}
}

// Contents returns the line-base addresses currently valid at this level.
// Used by the L1TF leak model and by tests.
func (c *Cache) Contents() []uint64 {
	var out []uint64
	for _, set := range c.lines {
		for i := range set {
			if c.live(&set[i]) {
				out = append(out, set[i].tag)
			}
		}
	}
	return out
}

// Reset returns this and all inner levels to the observable state of a
// freshly constructed hierarchy while keeping every lazily allocated
// line array: all lines are invalidated (an epoch bump on the fast
// path, in-place zeroing on the reference path), statistics and the
// LRU clock return to zero. A dead line is indistinguishable from a
// never-allocated one (lookup checks liveness, insert claims dead ways
// first), so a Reset hierarchy behaves byte-for-byte like a new one —
// the property the CPU core pool depends on — without re-zeroing
// megabytes of tag state per reuse. fast replaces the setting New
// fixed, so a pooled cache follows the options of its next owner.
func (c *Cache) Reset(fast bool) {
	c.fast = fast
	if c.fast {
		c.epoch++
	} else {
		for _, set := range c.lines {
			for i := range set {
				set[i] = cacheLine{}
			}
		}
		// Stale epoch stamps from a previous fast-path life would leak
		// liveness if the epoch counter were rewound; it never is, and
		// eagerly cleared lines are dead under any epoch.
	}
	c.Hits, c.Misses = 0, 0
	c.clock = 0
	if c.Next != nil {
		c.Next.Reset(fast)
	}
}

// Fast reports whether this level runs the memory-path fast path.
func (c *Cache) Fast() bool { return c.fast }

// ResetStats zeroes hit/miss counters at this and inner levels.
func (c *Cache) ResetStats() {
	c.Hits, c.Misses = 0, 0
	if c.Next != nil {
		c.Next.ResetStats()
	}
}

// Sets returns the number of sets (for tests).
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity (for tests).
func (c *Cache) Ways() int { return c.ways }
