package cpu

import (
	"testing"

	"spectrebench/internal/mem"
	"spectrebench/internal/model"
	"spectrebench/internal/simscope"
)

// newWithOptions constructs a core for m under a throwaway scope
// carrying opts, the way a cell scope hands its options to New.
func newWithOptions(m *model.CPU, opts simscope.Options) *Core {
	restore := simscope.Enter(&simscope.Scope{Options: opts})
	defer restore()
	return New(m)
}

// newMemFuzzCore builds one core for the memfast differential tests.
// The pair shares the blockcache fuzzer's program generator and layout
// (two PCID-tagged page tables, JIT self-replacement, fault-injected
// TLB glitches) and differs only in the memory-path fast path: the
// core is constructed under a scope whose NoMemFast option gates the
// cache/TLB/Phys structures and the core's MemFast together, exactly
// as the -memfast flag does.
func newMemFuzzCore(t *testing.T, m *model.CPU, seed uint64, fast bool) *Core {
	t.Helper()
	restore := simscope.Enter(&simscope.Scope{Options: simscope.Options{NoMemFast: !fast}})
	defer restore()
	return newFuzzCore(t, m, seed, true)
}

// TestMemFastDifferential is the property test for the memory-path
// fast path: randomized programs — loads, stores, clflush, CR3 swaps
// between PCID-tagged tables, JIT recompilation, injected TLB
// shootdowns — must leave the fast core in exactly the state of the
// eager-clear, scan-every-lookup reference: registers, flags, PC,
// cycles, instret, PMC counts, TLB and cache statistics, and the same
// error.
func TestMemFastDifferential(t *testing.T) {
	models := []*model.CPU{model.SkylakeClient(), model.CascadeLake()}
	var retired, tlbHits uint64
	for seed := uint64(1); seed <= 25; seed++ {
		m := models[seed%uint64(len(models))]
		ref := newMemFuzzCore(t, m, seed, false)
		fast := newMemFuzzCore(t, m, seed, true)
		const steps = 4000
		refErr := ref.Run(steps)
		fastErr := fast.Run(steps)
		if (refErr == nil) != (fastErr == nil) ||
			(refErr != nil && refErr.Error() != fastErr.Error()) {
			t.Errorf("seed %d: errors diverged:\n ref  %v\n fast %v", seed, refErr, fastErr)
		}
		compareCores(t, ref, fast, seed)
		if t.Failed() {
			t.FailNow()
		}
		retired += fast.Instret
		tlbHits += fast.TLB.Hits
	}
	if retired < 10000 {
		t.Errorf("fuzzer retired only %d instructions across all seeds; programs fault too early to exercise the fast path", retired)
	}
	if tlbHits == 0 {
		t.Error("fuzzer never hit the TLB; the translation cache was not exercised")
	}
}

// TestMemFastDifferentialLockstep single-steps the two variants through
// StepBlock(1) and requires bit-identical architectural state after
// every instruction, so a divergence is pinned to the instruction that
// caused it.
func TestMemFastDifferentialLockstep(t *testing.T) {
	const seed = 42
	ref := newMemFuzzCore(t, model.SkylakeClient(), seed, false)
	fast := newMemFuzzCore(t, model.SkylakeClient(), seed, true)
	for i := 0; i < 2000; i++ {
		nr, refErr := ref.StepBlock(1)
		nf, fastErr := fast.StepBlock(1)
		if nr != nf {
			t.Fatalf("step %d: consumed %d vs %d iterations", i, nr, nf)
		}
		if (refErr == nil) != (fastErr == nil) ||
			(refErr != nil && refErr.Error() != fastErr.Error()) {
			t.Fatalf("step %d: errors diverged: ref %v fast %v", i, refErr, fastErr)
		}
		if ref.PC != fast.PC || ref.Cycles != fast.Cycles || ref.Regs != fast.Regs {
			t.Fatalf("step %d: state diverged (pc %#x/%#x cycles %d/%d)",
				i, ref.PC, fast.PC, ref.Cycles, fast.Cycles)
		}
		if refErr != nil {
			break
		}
	}
}

// newXlateTestCore builds a kernel-mode core with two page tables that
// map the same VA window to different physical frames, for targeted
// translation-cache invalidation tests.
func newXlateTestCore(t *testing.T) (c *Core, pt1, pt2 *mem.PageTable) {
	t.Helper()
	c = newWithOptions(model.SkylakeClient(), simscope.Options{})
	pt1 = c.PTs.NewTable(1)
	pt2 = c.PTs.NewTable(2)
	pt1.MapRange(dataBase, dataBase, 4, true, true, true, false)
	pt2.MapRange(dataBase, dataBase+16*mem.PageSize, 4, true, true, true, false)
	c.SetPageTable(pt1)
	c.Priv = PrivKernel
	return c, pt1, pt2
}

// TestXlateCacheCR3Switch checks the translation cache cannot serve a
// stale translation across a CR3 switch: the same VA must translate
// through whichever table is live, even though the switch itself does
// not bump the TLB generation (PCIDs keep both translations cached).
func TestXlateCacheCR3Switch(t *testing.T) {
	c, _, pt2 := newXlateTestCore(t)
	pa1, _, mf := c.xlate(dataBase, mem.AccessRead, true)
	if mf != mem.FaultNone {
		t.Fatalf("xlate under pt1 faulted: %v", mf)
	}
	c.xlate(dataBase, mem.AccessRead, true) // prime the fast-path cache
	c.SetPageTable(pt2)
	pa2, _, mf := c.xlate(dataBase, mem.AccessRead, true)
	if mf != mem.FaultNone {
		t.Fatalf("xlate under pt2 faulted: %v", mf)
	}
	if pa1 == pa2 {
		t.Fatalf("CR3 switch served a stale translation: %#x both times", pa1)
	}
	if want := uint64(dataBase + 16*mem.PageSize); pa2 != want {
		t.Fatalf("pt2 translation = %#x, want %#x", pa2, want)
	}
}

// TestXlateCacheFlushInvalidates checks every TLB flush kills the
// cached translation via the generation guard: after the flush, the
// next xlate must miss in the TLB (the walk re-installs the entry)
// rather than replaying the cached hit.
func TestXlateCacheFlushInvalidates(t *testing.T) {
	flushes := []struct {
		name string
		f    func(c *Core)
	}{
		{"FlushVPN", func(c *Core) { c.TLB.FlushVPN(mem.VPN(dataBase)) }},
		{"FlushAll", func(c *Core) { c.TLB.FlushAll() }},
		{"FlushNonGlobal", func(c *Core) { c.TLB.FlushNonGlobal() }},
		{"FlushPCID", func(c *Core) { c.TLB.FlushPCID(mem.CR3PCID(c.CR3)) }},
	}
	for _, fl := range flushes {
		t.Run(fl.name, func(t *testing.T) {
			c, _, _ := newXlateTestCore(t)
			c.xlate(dataBase, mem.AccessRead, true) // walk + install
			c.xlate(dataBase, mem.AccessRead, true) // hit, primes the cache
			missesBefore := c.TLB.Misses
			fl.f(c)
			if _, _, mf := c.xlate(dataBase, mem.AccessRead, true); mf != mem.FaultNone {
				t.Fatalf("post-flush xlate faulted: %v", mf)
			}
			if c.TLB.Misses != missesBefore+1 {
				t.Fatalf("post-%s xlate replayed a dead entry (misses %d, want %d)",
					fl.name, c.TLB.Misses, missesBefore+1)
			}
		})
	}
}

// TestMemFastPooledCoreHonoursFlip checks a pooled core takes the
// options of the scope that checks it out — a fast cell and an oracle
// cell sharing one pool must not leak a setting through recycling, down
// to the cache and TLB it reuses.
func TestMemFastPooledCoreHonoursFlip(t *testing.T) {
	m := model.SkylakeClient()
	for checkoutPooled(m, nil, simscope.Options{}) != nil {
	}
	c := newWithOptions(m, simscope.Options{})
	if !c.MemFast || !c.TLB.Fast() || !c.L1.Fast() || !c.BlockCache || !c.Superblock {
		t.Fatal("core built with the zero Options reports a slow path")
	}
	c.Recycle()
	c2 := newWithOptions(m, simscope.Options{NoMemFast: true, NoBlockCache: true, NoSuperblock: true})
	defer c2.Recycle()
	if c2 != c {
		t.Fatal("the recycled core was not reused")
	}
	if c2.MemFast || c2.TLB.Fast() || c2.L1.Fast() || c2.BlockCache || c2.Superblock {
		t.Fatal("recycled core kept a fast path its new scope turned off")
	}
}
