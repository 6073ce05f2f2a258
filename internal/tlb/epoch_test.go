package tlb

import (
	"math/rand"
	"testing"
)

// withFastPath runs f under both fast-path settings as subtests.
// Epoch-bump and eager-clear flushes must be observationally identical.
func withFastPath(t *testing.T, f func(t *testing.T, fast bool)) {
	for _, mode := range []struct {
		name string
		on   bool
	}{{"fast", true}, {"eager", false}} {
		t.Run(mode.name, func(t *testing.T) { f(t, mode.on) })
	}
}

// TestEpochFlushAllObservability: after FlushAll every entry — global
// or not — must be dead to Lookup and Valid, and inserts must reclaim
// the dead ways.
func TestEpochFlushAllObservability(t *testing.T) {
	withFastPath(t, func(t *testing.T, fast bool) {
		tl := New(4, 2, fast)
		tl.Insert(1, 1, pte(0x1000, false))
		tl.Insert(2, 2, pte(0x2000, true))
		tl.FlushAll()
		if tl.Valid() != 0 {
			t.Fatalf("Valid after FlushAll = %d, want 0", tl.Valid())
		}
		if _, ok := tl.Lookup(1, 1); ok {
			t.Fatal("non-global entry survived FlushAll")
		}
		if _, ok := tl.Lookup(2, 2); ok {
			t.Fatal("global entry survived FlushAll")
		}
		tl.Insert(5, 1, pte(0x5000, false))
		if tl.Valid() != 1 {
			t.Fatalf("Valid after post-flush insert = %d, want 1", tl.Valid())
		}
	})
}

// TestEpochFlushNonGlobalSparesGlobals: the non-global epoch bump must
// kill exactly the non-global entries, leaving globals live — the PCID
// economics of §5.1 depend on this distinction.
func TestEpochFlushNonGlobalSparesGlobals(t *testing.T) {
	withFastPath(t, func(t *testing.T, fast bool) {
		tl := New(4, 2, fast)
		tl.Insert(1, 1, pte(0x1000, false))
		tl.Insert(2, 1, pte(0x2000, true))
		tl.Insert(3, 2, pte(0x3000, false))
		tl.FlushNonGlobal()
		if tl.Valid() != 1 {
			t.Fatalf("Valid after FlushNonGlobal = %d, want 1 (the global)", tl.Valid())
		}
		if _, ok := tl.Lookup(2, 7); !ok {
			t.Fatal("global entry lost by FlushNonGlobal")
		}
		if _, ok := tl.Lookup(1, 1); ok {
			t.Fatal("non-global entry survived FlushNonGlobal")
		}
		// A second FlushNonGlobal after re-inserting must kill the new
		// entry but keep sparing the old global.
		tl.Insert(1, 1, pte(0x1000, false))
		tl.FlushNonGlobal()
		if _, ok := tl.Lookup(2, 7); !ok {
			t.Fatal("global entry lost by the second FlushNonGlobal")
		}
		if _, ok := tl.Lookup(1, 1); ok {
			t.Fatal("re-inserted entry survived the second FlushNonGlobal")
		}
		// FlushAll still kills the global.
		tl.FlushAll()
		if _, ok := tl.Lookup(2, 7); ok {
			t.Fatal("global survived FlushAll after epoch history")
		}
	})
}

// TestEpochFlushPCIDOnEpochDeadEntries: FlushPCID scans only live
// entries; an entry already dead via an epoch bump must not be
// resurrected or double-counted by a later targeted flush, and a
// same-PCID entry inserted after the bump must still be flushable.
func TestEpochFlushPCIDOnEpochDeadEntries(t *testing.T) {
	withFastPath(t, func(t *testing.T, fast bool) {
		tl := New(4, 2, fast)
		tl.Insert(1, 3, pte(0x1000, false))
		tl.FlushAll()
		tl.FlushPCID(3) // entry already epoch-dead; must be a no-op
		if tl.Valid() != 0 {
			t.Fatalf("Valid = %d after FlushAll+FlushPCID, want 0", tl.Valid())
		}
		tl.Insert(1, 3, pte(0x1000, false))
		tl.Insert(2, 4, pte(0x2000, false))
		tl.FlushPCID(3)
		if _, ok := tl.Lookup(1, 3); ok {
			t.Fatal("pcid-3 entry survived FlushPCID after epoch history")
		}
		if _, ok := tl.Lookup(2, 4); !ok {
			t.Fatal("pcid-4 entry lost by FlushPCID(3)")
		}
	})
}

// TestEpochResetObservability: Reset must return the TLB to fresh
// state — no live entries, zero statistics — and the next insert/lookup
// sequence must behave exactly as on a new TLB.
func TestEpochResetObservability(t *testing.T) {
	withFastPath(t, func(t *testing.T, fast bool) {
		tl := New(4, 2, fast)
		tl.Insert(1, 1, pte(0x1000, false))
		tl.Insert(2, 1, pte(0x2000, true))
		tl.Lookup(1, 1)
		tl.Lookup(9, 9)
		tl.FlushAll()
		tl.Reset(fast)
		if tl.Valid() != 0 {
			t.Fatalf("Valid after Reset = %d, want 0", tl.Valid())
		}
		if tl.Hits != 0 || tl.Misses != 0 || tl.Flushes != 0 {
			t.Fatalf("stats after Reset = %d/%d/%d, want zeros", tl.Hits, tl.Misses, tl.Flushes)
		}
		fresh := New(4, 2, fast)
		for _, step := range []struct {
			vpn  uint64
			pcid uint16
		}{{1, 1}, {2, 1}, {1, 2}} {
			_, okA := tl.Lookup(step.vpn, step.pcid)
			_, okB := fresh.Lookup(step.vpn, step.pcid)
			if okA != okB {
				t.Fatalf("post-Reset lookup (%d,%d) = %v, fresh = %v", step.vpn, step.pcid, okA, okB)
			}
		}
	})
}

// TestRehitMatchesLookup: replaying a hit through Rehit must leave the
// TLB in exactly the state a second Lookup would — same PTE, same hit
// count, and the same LRU consequences for later evictions.
func TestRehitMatchesLookup(t *testing.T) {
	withFastPath(t, func(t *testing.T, fast bool) {
		mk := func() *TLB {
			tl := New(1, 2, fast)
			tl.Insert(10, 1, pte(0xa000, false))
			tl.Insert(20, 1, pte(0xb000, false))
			return tl
		}
		a, b := mk(), mk()
		// a: LookupH then Rehit; b: two plain Lookups.
		ea, ok := a.LookupH(10, 1)
		if !ok {
			t.Fatal("LookupH missed")
		}
		genBefore := a.Gen()
		pa := a.Rehit(ea)
		if a.Gen() != genBefore {
			t.Fatal("Rehit mutated the generation; lookups must keep Gen stable")
		}
		b.Lookup(10, 1)
		pb, _ := b.Lookup(10, 1)
		if pa != pb {
			t.Fatalf("Rehit PTE %+v != Lookup PTE %+v", pa, pb)
		}
		if a.Hits != b.Hits || a.Misses != b.Misses {
			t.Fatalf("counters diverged: rehit %d/%d lookup %d/%d", a.Hits, a.Misses, b.Hits, b.Misses)
		}
		// vpn 10 is MRU on both; inserting a third entry must evict 20 on
		// both sides.
		a.Insert(30, 1, pte(0xc000, false))
		b.Insert(30, 1, pte(0xc000, false))
		for _, vpn := range []uint64{10, 20, 30} {
			_, okA := a.Lookup(vpn, 1)
			_, okB := b.Lookup(vpn, 1)
			if okA != okB {
				t.Fatalf("post-eviction vpn %d: rehit-side %v lookup-side %v", vpn, okA, okB)
			}
		}
	})
}

// TestGenTracksMutations pins the contract the CPU core's translation
// cache relies on: Gen changes on every insert, flush, and reset, and
// never on lookups.
func TestGenTracksMutations(t *testing.T) {
	tl := New(4, 2, true)
	g := tl.Gen()
	tl.Lookup(1, 1)
	tl.Lookup(2, 2)
	if tl.Gen() != g {
		t.Fatal("lookups changed Gen")
	}
	for _, mut := range []struct {
		name string
		f    func()
	}{
		{"Insert", func() { tl.Insert(1, 1, pte(0x1000, false)) }},
		{"FlushVPN", func() { tl.FlushVPN(1) }},
		{"FlushPCID", func() { tl.FlushPCID(1) }},
		{"FlushNonGlobal", func() { tl.FlushNonGlobal() }},
		{"FlushAll", func() { tl.FlushAll() }},
		{"Reset", func() { tl.Reset(true) }},
	} {
		before := tl.Gen()
		mut.f()
		if tl.Gen() == before {
			t.Fatalf("%s did not change Gen", mut.name)
		}
	}
}

// tlbObs is one observation of the differential fuzz: lookup outcome
// plus the translated physical page.
type tlbObs struct {
	ok   bool
	phys uint64
}

// TestEpochDifferentialFuzz drives random interleavings of Insert,
// Lookup, all four flushes and Reset through an epoch-stamped and an
// eager-clear TLB and requires identical observations: every lookup
// outcome and PTE, Hits/Misses/Flushes, and Valid. Resets on the fast
// instance switch its mode at random so mixed histories are covered.
func TestEpochDifferentialFuzz(t *testing.T) {
	mk := func(fast bool) *TLB { return New(4, 2, fast) }
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		ref := mk(false)
		fast := mk(true)
		fastMode := true
		apply := func(tl *TLB, fast bool, k int, vpn uint64, pcid uint16, global bool) tlbObs {
			switch k {
			case 0:
				tl.Insert(vpn, pcid, pte(vpn<<12, global))
			case 1:
				p, ok := tl.Lookup(vpn, pcid)
				return tlbObs{ok: ok, phys: p.Phys}
			case 2:
				tl.FlushAll()
			case 3:
				tl.FlushNonGlobal()
			case 4:
				tl.FlushPCID(pcid)
			case 5:
				tl.FlushVPN(vpn)
			case 6:
				tl.Reset(fast)
			}
			return tlbObs{}
		}
		for step := 0; step < 3000; step++ {
			vpn := uint64(r.Intn(16))
			pcid := uint16(r.Intn(4))
			global := r.Intn(4) == 0
			var k int
			switch x := r.Intn(100); {
			case x < 35:
				k = 0 // insert
			case x < 70:
				k = 1 // lookup
			case x < 78:
				k = 2 // flushAll
			case x < 86:
				k = 3 // flushNonGlobal
			case x < 92:
				k = 4 // flushPCID
			case x < 97:
				k = 5 // flushVPN
			default:
				k = 6 // reset
			}
			if k == 6 {
				fastMode = r.Intn(2) == 0
			}
			refObs := apply(ref, false, k, vpn, pcid, global)
			fastObs := apply(fast, fastMode, k, vpn, pcid, global)
			if refObs != fastObs {
				t.Fatalf("seed %d step %d: op %d (vpn %d pcid %d global %v): eager %+v fast %+v",
					seed, step, k, vpn, pcid, global, refObs, fastObs)
			}
			if ref.Hits != fast.Hits || ref.Misses != fast.Misses || ref.Flushes != fast.Flushes {
				t.Fatalf("seed %d step %d: stats diverged: eager %d/%d/%d fast %d/%d/%d",
					seed, step, ref.Hits, ref.Misses, ref.Flushes, fast.Hits, fast.Misses, fast.Flushes)
			}
			if step%61 == 0 && ref.Valid() != fast.Valid() {
				t.Fatalf("seed %d step %d: Valid diverged: eager %d fast %d",
					seed, step, ref.Valid(), fast.Valid())
			}
		}
		if ref.Valid() != fast.Valid() {
			t.Fatalf("seed %d: final Valid diverged: eager %d fast %d", seed, ref.Valid(), fast.Valid())
		}
	}
}
