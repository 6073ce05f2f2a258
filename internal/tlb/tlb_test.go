package tlb

import (
	"testing"
	"testing/quick"

	"spectrebench/internal/mem"
)

func pte(pa uint64, global bool) mem.PTE {
	return mem.PTE{Phys: pa, Present: true, Writable: true, User: true, Global: global}
}

func TestLookupInsert(t *testing.T) {
	tl := New(16, 4, true)
	if _, ok := tl.Lookup(5, 1); ok {
		t.Fatal("empty TLB hit")
	}
	tl.Insert(5, 1, pte(0x5000, false))
	got, ok := tl.Lookup(5, 1)
	if !ok || got.Phys != 0x5000 {
		t.Fatalf("lookup = %+v / %v", got, ok)
	}
	// Different PCID misses.
	if _, ok := tl.Lookup(5, 2); ok {
		t.Error("cross-PCID hit on non-global entry")
	}
}

func TestGlobalMatchesAnyPCID(t *testing.T) {
	tl := New(16, 4, true)
	tl.Insert(9, 1, pte(0x9000, true))
	for _, pcid := range []uint16{0, 1, 7, 4095} {
		if _, ok := tl.Lookup(9, pcid); !ok {
			t.Errorf("global entry missed under pcid %d", pcid)
		}
	}
}

func TestFlushPCID(t *testing.T) {
	tl := New(16, 4, true)
	tl.Insert(1, 1, pte(0x1000, false))
	tl.Insert(2, 2, pte(0x2000, false))
	tl.Insert(3, 1, pte(0x3000, true)) // global, tagged 1
	tl.FlushPCID(1)
	if _, ok := tl.Lookup(1, 1); ok {
		t.Error("pcid-1 entry survived FlushPCID(1)")
	}
	if _, ok := tl.Lookup(2, 2); !ok {
		t.Error("pcid-2 entry lost")
	}
	if _, ok := tl.Lookup(3, 1); !ok {
		t.Error("global entry must survive FlushPCID")
	}
}

func TestFlushNonGlobal(t *testing.T) {
	tl := New(16, 4, true)
	tl.Insert(1, 1, pte(0x1000, false))
	tl.Insert(2, 1, pte(0x2000, true))
	tl.FlushNonGlobal()
	if _, ok := tl.Lookup(1, 1); ok {
		t.Error("non-global survived")
	}
	if _, ok := tl.Lookup(2, 1); !ok {
		t.Error("global flushed")
	}
	tl.FlushAll()
	if _, ok := tl.Lookup(2, 1); ok {
		t.Error("global survived FlushAll")
	}
}

func TestFlushVPN(t *testing.T) {
	tl := New(16, 4, true)
	tl.Insert(7, 1, pte(0x7000, false))
	tl.Insert(7, 2, pte(0x7000, false))
	tl.Insert(8, 1, pte(0x8000, false))
	tl.FlushVPN(7)
	if _, ok := tl.Lookup(7, 1); ok {
		t.Error("vpn 7 pcid 1 survived")
	}
	if _, ok := tl.Lookup(7, 2); ok {
		t.Error("vpn 7 pcid 2 survived")
	}
	if _, ok := tl.Lookup(8, 1); !ok {
		t.Error("vpn 8 lost")
	}
}

func TestEvictionLRU(t *testing.T) {
	tl := New(1, 2, true) // one set, two ways
	tl.Insert(10, 1, pte(0xa000, false))
	tl.Insert(20, 1, pte(0xb000, false))
	tl.Lookup(10, 1) // 10 becomes MRU
	tl.Insert(30, 1, pte(0xc000, false))
	if _, ok := tl.Lookup(10, 1); !ok {
		t.Error("MRU entry evicted")
	}
	if _, ok := tl.Lookup(20, 1); ok {
		t.Error("LRU entry survived")
	}
}

func TestInsertUpdatesExisting(t *testing.T) {
	tl := New(4, 2, true)
	tl.Insert(4, 1, pte(0x4000, false))
	tl.Insert(4, 1, pte(0x6000, false))
	got, ok := tl.Lookup(4, 1)
	if !ok || got.Phys != 0x6000 {
		t.Fatalf("update lost: %+v %v", got, ok)
	}
	if tl.Valid() != 1 {
		t.Errorf("valid = %d, want 1 (update must not duplicate)", tl.Valid())
	}
}

func TestStatsCount(t *testing.T) {
	tl := New(8, 2, true)
	tl.Lookup(1, 1)
	tl.Insert(1, 1, pte(0x1000, false))
	tl.Lookup(1, 1)
	if tl.Misses != 1 || tl.Hits != 1 {
		t.Errorf("stats = %d hits / %d misses", tl.Hits, tl.Misses)
	}
	tl.ResetStats()
	if tl.Hits != 0 || tl.Misses != 0 {
		t.Error("ResetStats failed")
	}
}

// Property: insert then lookup under the same PCID always hits with the
// inserted translation.
func TestInsertLookupProperty(t *testing.T) {
	tl := New(64, 8, true)
	f := func(vpn uint64, pcid uint16, pa uint64) bool {
		vpn &= 0xfffff
		p := pte(pa&^uint64(mem.PageMask), false)
		tl.Insert(vpn, pcid, p)
		got, ok := tl.Lookup(vpn, pcid)
		return ok && got.Phys == p.Phys
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSetRefMatchesLookup drives a SetRef and the plain Lookup path over
// the same access sequence on two identically-populated TLBs and checks
// the results, counters, and subsequent eviction behaviour agree — the
// decoded-block fast path depends on SetRef being observationally
// identical to Lookup.
func TestSetRefMatchesLookup(t *testing.T) {
	mk := func() *TLB {
		tl := New(4, 2, true)
		tl.Insert(8, 1, pte(0x8000, false)) // set 0
		tl.Insert(12, 1, pte(0xc000, true)) // set 0, global
		return tl
	}
	a, b := mk(), mk()
	ref := a.SetFor(8)
	seq := []struct {
		vpn  uint64
		pcid uint16
	}{{8, 1}, {12, 9}, {8, 2}, {16, 1}, {8, 1}}
	for i, s := range seq {
		gotA, okA := ref.Lookup(s.vpn, s.pcid)
		gotB, okB := b.Lookup(s.vpn, s.pcid)
		if okA != okB || gotA != gotB {
			t.Fatalf("access %d (%d,%d): SetRef (%+v,%v) vs Lookup (%+v,%v)",
				i, s.vpn, s.pcid, gotA, okA, gotB, okB)
		}
	}
	if a.Hits != b.Hits || a.Misses != b.Misses {
		t.Fatalf("counters diverged: SetRef %d/%d vs Lookup %d/%d", a.Hits, a.Misses, b.Hits, b.Misses)
	}
	// The LRU clocks must have advanced identically: insert a third entry
	// into the full set and check both TLBs evict the same victim.
	a.Insert(16, 1, pte(0x10000, false))
	b.Insert(16, 1, pte(0x10000, false))
	for _, vpn := range []uint64{8, 12, 16} {
		_, okA := a.Lookup(vpn, 1)
		_, okB := b.Lookup(vpn, 1)
		if okA != okB {
			t.Fatalf("post-eviction vpn %d: SetRef-side %v vs Lookup-side %v", vpn, okA, okB)
		}
	}
}

// TestSetRefValidAcrossFlush checks the documented pinning contract: a
// SetRef taken before a full flush still works afterwards (entries are
// invalidated in place, never reallocated).
func TestSetRefValidAcrossFlush(t *testing.T) {
	tl := New(4, 2, true)
	tl.Insert(8, 1, pte(0x8000, false))
	ref := tl.SetFor(8)
	if _, ok := ref.Lookup(8, 1); !ok {
		t.Fatal("pre-flush lookup missed")
	}
	tl.FlushAll()
	if _, ok := ref.Lookup(8, 1); ok {
		t.Fatal("SetRef saw a stale entry after FlushAll")
	}
	tl.Insert(8, 1, pte(0x8000, false))
	if _, ok := ref.Lookup(8, 1); !ok {
		t.Fatal("SetRef missed an entry inserted after FlushAll")
	}
}
