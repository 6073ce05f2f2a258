// Package tlb models a set-associative translation lookaside buffer with
// PCID (process-context identifier) tags and global pages.
//
// PCIDs are what make kernel page-table isolation affordable on Broadwell
// and Skylake (§5.1 of the paper): without them every CR3 write flushes
// the TLB; with them the user and kernel page tables coexist under
// different tags and the switch costs only the CR3 write itself.
//
// # Memory-path fast path
//
// Like internal/cache, the TLB supports epoch-stamped invalidation
// behind the fast argument of New and Reset: each
// entry records the validity epochs it was inserted under, and the two
// bulk flushes become O(1) epoch bumps. Two epochs are needed because
// the TLB has two bulk-invalidation granularities: FlushAll kills
// everything (bump epoch), while FlushNonGlobal must spare global
// entries (bump ngEpoch, which only non-global entries are checked
// against). The targeted flushes — FlushPCID (INVPCID) and FlushVPN
// (invlpg) — stay as scans; they are rare and touch one PCID or one
// set.
//
// The TLB also maintains a mutation generation (Gen) counted up on
// every state change — insert, any flush, reset. An unchanged
// generation guarantees the entry arrays are bit-identical, which lets
// the CPU core cache "the entry that hit last time" per translation
// stream and replay a hit against it (Rehit) without rescanning the
// set: if the generation still matches, the cached entry is provably
// still the first match the scan would find.
package tlb

import "spectrebench/internal/mem"

// Entry is a cached translation.
type Entry struct {
	valid   bool
	global  bool
	pcid    uint16
	vpn     uint64
	pte     mem.PTE
	used    uint64
	epoch   uint64 // validity epoch at insert (checked against TLB.epoch)
	ngEpoch uint64 // non-global epoch at insert (checked unless global)
}

// TLB is a set-associative translation cache.
type TLB struct {
	sets  int
	ways  int
	mask  uint64 // sets-1 when sets is a power of two, else 0 with pow2 false
	pow2  bool
	fast  bool // fixed by New/Reset
	lines []Entry
	clock uint64

	// epoch is bumped by FlushAll, invalidating every entry in O(1) on
	// the fast path; ngEpoch is bumped by FlushNonGlobal and checked
	// only for non-global entries. An entry is live iff
	//   valid && epoch matches && (global || ngEpoch matches).
	// The eager path clears valid bits instead; the predicate holds in
	// both modes, so mixed histories (mode changes between Resets) are
	// safe.
	epoch   uint64
	ngEpoch uint64

	// gen counts mutations (inserts, flushes, resets). Read via Gen by
	// the CPU core's translation cache; never part of simulated state.
	gen uint64

	Hits, Misses, Flushes uint64
}

// New returns a TLB with the given geometry. fast selects epoch-bump
// bulk flushes; both modes produce byte-identical simulated state.
func New(sets, ways int, fast bool) *TLB {
	t := &TLB{sets: sets, ways: ways, lines: make([]Entry, sets*ways), fast: fast}
	if sets > 0 && sets&(sets-1) == 0 {
		t.mask = uint64(sets - 1)
		t.pow2 = true
	}
	return t
}

func (t *TLB) set(vpn uint64) []Entry {
	var idx int
	if t.pow2 {
		idx = int(vpn & t.mask)
	} else {
		idx = int(vpn % uint64(t.sets))
	}
	return t.lines[idx*t.ways : (idx+1)*t.ways]
}

// live reports whether an entry currently holds a valid translation.
func (t *TLB) live(e *Entry) bool {
	return e.valid && e.epoch == t.epoch && (e.global || e.ngEpoch == t.ngEpoch)
}

// Gen returns the TLB's mutation generation. It changes whenever any
// insert, flush or reset could have altered which entry a lookup finds;
// lookups themselves (which only touch LRU state and counters) keep it
// stable. Callers may cache an *Entry obtained from LookupH and reuse
// it via Rehit for as long as Gen is unchanged.
func (t *TLB) Gen() uint64 { return t.gen }

// SetRef pins the set that holds translations for one VPN. The CPU
// core's decoded-block fetch path resolves the set once per basic block
// (the block never crosses a page, so the set index is fixed) and then
// performs per-instruction lookups against the pinned slice without
// recomputing the index. The backing array is allocated once in New and
// flush operations invalidate entries in place (or bump epochs), so a
// SetRef stays valid across flushes, inserts and evictions for the
// lifetime of the TLB.
type SetRef struct {
	t   *TLB
	set []Entry
}

// SetFor returns a SetRef for vpn's set.
func (t *TLB) SetFor(vpn uint64) SetRef {
	return SetRef{t: t, set: t.set(vpn)}
}

// Lookup is exactly TLB.Lookup restricted to the pinned set: same scan
// order, same LRU-clock and hit/miss bookkeeping, so interleaving SetRef
// and TLB lookups is indistinguishable from using TLB.Lookup alone.
func (r SetRef) Lookup(vpn uint64, pcid uint16) (mem.PTE, bool) {
	if e, ok := r.LookupH(vpn, pcid); ok {
		return e.pte, true
	}
	return mem.PTE{}, false
}

// LookupH is Lookup returning a handle to the hitting entry, for callers
// that cache the hit (see TLB.Rehit). Bookkeeping is identical.
func (r SetRef) LookupH(vpn uint64, pcid uint16) (*Entry, bool) {
	t := r.t
	for i := range r.set {
		e := &r.set[i]
		if t.live(e) && e.vpn == vpn && (e.global || e.pcid == pcid) {
			t.clock++
			e.used = t.clock
			t.Hits++
			return e, true
		}
	}
	t.Misses++
	return nil, false
}

// Lookup returns the cached PTE for vpn under pcid. Global entries match
// any PCID.
func (t *TLB) Lookup(vpn uint64, pcid uint16) (mem.PTE, bool) {
	if e, ok := t.LookupH(vpn, pcid); ok {
		return e.pte, true
	}
	return mem.PTE{}, false
}

// LookupH is Lookup returning a handle to the hitting entry, for callers
// that cache the hit (see Rehit). Bookkeeping is identical to Lookup.
func (t *TLB) LookupH(vpn uint64, pcid uint16) (*Entry, bool) {
	set := t.set(vpn)
	for i := range set {
		e := &set[i]
		if t.live(e) && e.vpn == vpn && (e.global || e.pcid == pcid) {
			t.clock++
			e.used = t.clock
			t.Hits++
			return e, true
		}
	}
	t.Misses++
	return nil, false
}

// Rehit replays a hit against an entry previously returned by LookupH,
// with bookkeeping identical to the scan finding it: the LRU clock
// advances, the entry's timestamp updates, Hits increments. Only valid
// while Gen is unchanged since the LookupH — an unchanged generation
// means no insert/flush/reset has run, so the entry is still live and
// still the first match in its set's scan order (scan order is way
// order, which lookups never permute).
func (t *TLB) Rehit(e *Entry) mem.PTE {
	t.clock++
	e.used = t.clock
	t.Hits++
	return e.pte
}

// PTE returns the entry's translation (for callers holding a handle).
func (e *Entry) PTE() mem.PTE { return e.pte }

// Insert caches a translation. A dead entry — never filled, eagerly
// invalidated, or with a stale epoch — is claimed before evicting LRU,
// and an existing live entry for the same (vpn, pcid, global) tag is
// overwritten in place.
func (t *TLB) Insert(vpn uint64, pcid uint16, pte mem.PTE) {
	t.gen++
	set := t.set(vpn)
	victim := &set[0]
	for i := range set {
		e := &set[i]
		if t.live(e) && e.vpn == vpn && e.pcid == pcid && e.global == pte.Global {
			victim = e
			break
		}
		if !t.live(e) {
			victim = e
			break
		}
		if e.used < victim.used {
			victim = e
		}
	}
	t.clock++
	*victim = Entry{
		valid: true, vpn: vpn, pcid: pcid, global: pte.Global, pte: pte,
		used: t.clock, epoch: t.epoch, ngEpoch: t.ngEpoch,
	}
}

// FlushAll invalidates everything, including global entries. O(1) on
// the fast path (epoch bump).
func (t *TLB) FlushAll() {
	t.gen++
	t.Flushes++
	if t.fast {
		t.epoch++
		return
	}
	for i := range t.lines {
		t.lines[i].valid = false
	}
}

// FlushNonGlobal invalidates all non-global entries (legacy CR3 write
// without PCID support). O(1) on the fast path (non-global epoch bump).
func (t *TLB) FlushNonGlobal() {
	t.gen++
	t.Flushes++
	if t.fast {
		t.ngEpoch++
		return
	}
	for i := range t.lines {
		if !t.lines[i].global {
			t.lines[i].valid = false
		}
	}
}

// FlushPCID invalidates entries tagged with pcid (INVPCID). Rare enough
// that it stays a scan in both modes; only live entries are cleared so
// epoch-dead ones never resurrect.
func (t *TLB) FlushPCID(pcid uint16) {
	t.gen++
	t.Flushes++
	for i := range t.lines {
		e := &t.lines[i]
		if t.live(e) && !e.global && e.pcid == pcid {
			e.valid = false
		}
	}
}

// FlushVPN invalidates any entry for vpn regardless of PCID (invlpg).
// Only vpn's own set can hold such entries, so only it is scanned.
func (t *TLB) FlushVPN(vpn uint64) {
	t.gen++
	set := t.set(vpn)
	for i := range set {
		if t.live(&set[i]) && set[i].vpn == vpn {
			set[i].valid = false
		}
	}
}

// Valid returns the number of valid entries (for tests).
func (t *TLB) Valid() int {
	n := 0
	for i := range t.lines {
		if t.live(&t.lines[i]) {
			n++
		}
	}
	return n
}

// Reset returns the TLB to the observable state of a freshly
// constructed one, reusing the entry array: every entry is invalidated
// (epoch bumps on the fast path, in-place zeroing otherwise), the LRU
// clock and all statistics return to zero. Unlike FlushAll it does not
// count as a flush — reuse is host-side recycling, not a simulated TLB
// event. fast replaces the setting New fixed, so a pooled TLB follows
// the options of its next owner.
func (t *TLB) Reset(fast bool) {
	t.gen++
	t.fast = fast
	if t.fast {
		t.epoch++
		t.ngEpoch++
	} else {
		for i := range t.lines {
			t.lines[i] = Entry{}
		}
	}
	t.clock = 0
	t.Hits, t.Misses, t.Flushes = 0, 0, 0
}

// Fast reports whether the TLB uses epoch-bump bulk flushes.
func (t *TLB) Fast() bool { return t.fast }

// ResetStats zeroes the hit/miss/flush counters.
func (t *TLB) ResetStats() { t.Hits, t.Misses, t.Flushes = 0, 0, 0 }
