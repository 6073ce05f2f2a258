// Core pooling: recycle fully-constructed cores between simulation
// cells instead of rebuilding the cache hierarchy, TLB and predictor
// state for every cell. A core's microarchitectural structures are by
// far the most allocation-heavy objects in the simulator (the BTB and
// cache tag arrays dominate the allocation profile of a sweep), and the
// memoised engine constructs one or more cores per cell. Pooled cores
// are keyed by microarchitecture so the geometry-sized arrays (BTB
// lines, TLB entries, cache sets, predictor counters) can be reused in
// place; everything else is re-derived from the model on checkout, so a
// recycled core is observably identical to a freshly constructed one.
//
// Lifecycle: cpu.New checks the pool for the model's uarch before
// constructing, and registers the core for recycling on the current
// simulation scope (simscope.Scope.Defer). The scope owner — the engine
// for cell scopes, the supervisor for attempt scopes — releases the
// scope after the cell's task has fully completed, which returns the
// core to the pool. Cores created outside any scope, and both halves of
// an SMT pair (siblings share L1/TLB/BTB/predictor/fill-buffer state,
// so pooling either would alias the shared structures), are never
// pooled and simply fall to the garbage collector.
package cpu

import (
	"sync"

	"spectrebench/internal/branch"
	"spectrebench/internal/faultinject"
	"spectrebench/internal/isa"
	"spectrebench/internal/mem"
	"spectrebench/internal/model"
	"spectrebench/internal/simscope"
)

// corePools maps uarch name -> *sync.Pool of *Core. Keying by uarch
// guarantees every core in a pool has geometry-compatible BTB/TLB/cache
// arrays (geometry is a pure function of the model).
var corePools sync.Map

func poolFor(uarch string) *sync.Pool {
	if p, ok := corePools.Load(uarch); ok {
		return p.(*sync.Pool)
	}
	p, _ := corePools.LoadOrStore(uarch, &sync.Pool{})
	return p.(*sync.Pool)
}

// checkoutPooled returns a recycled core reinitialised for m under sc
// with opts, or nil when the pool is empty.
func checkoutPooled(m *model.CPU, sc *simscope.Scope, opts simscope.Options) *Core {
	v := poolFor(m.Uarch).Get()
	if v == nil {
		return nil
	}
	c := v.(*Core)
	c.reinit(m, sc, opts)
	return c
}

// retainOnScope schedules c for recycling when sc is released. With no
// scope (or pooling off for c) the core is simply garbage-collected. The
// deferred cleanup captures the checkout generation so it becomes a
// no-op if the caller recycles the core explicitly first (Recycle) and
// the pool hands it to someone else before the scope ends.
func retainOnScope(c *Core, sc *simscope.Scope) {
	if sc != nil && !c.noPool {
		gen := c.poolGen.Load()
		sc.Defer(func() { c.recycle(gen) })
	}
}

// reinit returns a recycled core to the observable state New(m) would
// produce under scope sc with options opts. Every model-derived
// parameter is re-applied — pools are keyed by uarch, but latencies,
// speculation parameters and ARCH_CAPABILITIES are refreshed from m
// regardless, so a mutated model value can never leak between cells
// through the pool. The fault injector is derived exactly as in New (one
// scope sequence number), so injector streams are identical whether a
// cell gets a fresh or a recycled core.
func (c *Core) reinit(m *model.CPU, sc *simscope.Scope, opts simscope.Options) {
	fast := !opts.NoMemFast
	// Architectural state.
	c.Model = m
	c.Regs = [isa.NumRegs]uint64{}
	c.FRegs = [isa.NumFRegs]float64{}
	c.FlagEQ, c.FlagLT = false, false
	c.PC = 0
	c.Priv = PrivUser
	c.CR3 = 0
	c.FPUEnabled = true
	c.SavedUserPC = 0
	c.GSSwapped = false
	clear(c.msrs)
	c.msrs[MSRArchCaps] = archCaps(m)

	// Virtualisation and platform state. Memory images are cell-owned
	// and cheap to construct relative to the tag arrays, so they are
	// rebuilt rather than scrubbed.
	c.Guest = false
	c.Nested = nil
	c.Phys = mem.NewPhys(fast)
	c.PTs = mem.NewRegistry()

	// Microarchitectural structures: reset in place, re-deriving every
	// latency and speculation parameter from the model.
	l1 := c.L1
	l2 := l1.Next
	llc := l2.Next
	l1.Reset(fast)
	l1.HitLatency = m.Costs.CacheL1
	l2.HitLatency = m.Costs.CacheL2 - m.Costs.CacheL1
	llc.HitLatency = m.Costs.CacheLLC - m.Costs.CacheL2
	llc.MemLatency = m.Costs.Mem
	c.TLB.Reset(fast)
	c.BTB.Reset(branch.BTBConfig{
		Sets: 1024, Ways: 4,
		TagMode:      m.Spec.EIBRS,
		HistoryDepth: m.Spec.BTBHistoryDepth,
	})
	wantRSB := m.RSBDepth
	if wantRSB <= 0 {
		wantRSB = 16
	}
	if c.RSB.Depth() != wantRSB {
		c.RSB = branch.NewRSB(m.RSBDepth)
	} else {
		c.RSB.Clear()
	}
	c.Cond.Reset()
	c.BHB.Clear()
	c.SB.Reset()
	c.FB.Reset()
	c.PMC.Reset()

	// Accounting and scope binding.
	c.Cycles, c.Instret = 0, 0
	c.FI = faultinject.FromActiveScope(sc, m.Uarch)
	c.CycleBudget = scopeCycleBudget(sc)
	c.interrupted.Store(false)
	c.scope = sc
	c.flushedCycles = 0

	// Hooks and configuration toggles.
	c.OnSyscall = nil
	c.OnTrap = nil
	c.OnVMExit = nil
	c.OnRetire = nil
	c.SpecEnabled = true
	c.NoPCID = false
	c.FusedCmovGuards = false
	clear(c.Thunks)
	c.BlockCache = !opts.NoBlockCache
	c.MemFast = fast
	c.Superblock = !opts.NoSuperblock
	// Translation and page-table caches refer to the previous cell's
	// registry and would be stale even with the generation guard (the
	// TLB generation is monotonic across Reset, but PTs was replaced).
	c.clearXlateCaches()

	// Fetch-path bookkeeping. The codeState is exclusively owned here
	// (SMT pairs are never pooled), so reset it in place; decoded blocks
	// reference the previous cell's programs and must go.
	*c.code = codeState{}
	c.clearDecodedBlocks()
	c.pendCycles, c.pendInstret = 0, 0
	c.programs = nil

	// Execution-volatile state.
	c.kernelEntries = 0
	c.pendingLeak = pendingLeak{}
	c.lastLoadRet, c.lastStoreRet = 0, 0
	c.ssbSeen = nil
	c.inTransient = false
	c.halted = false
	c.noPool = false
}

// Recycle returns the core to its uarch's pool immediately. Call it
// only when the core is provably dead — nothing will read or write any
// of its state again — typically via defer in a loop body that builds a
// fresh machine per iteration and extracts a plain value. The
// scope-deferred recycling that cpu.New arranges is made a no-op by the
// generation check, so an explicitly recycled core cannot be recycled a
// second time while a new owner is using it. SMT siblings and cores
// with pooling disabled are dropped silently.
func (c *Core) Recycle() {
	c.recycle(c.poolGen.Load())
}

// recycle returns the core to its uarch's pool if gen still names the
// current checkout generation. Called via simscope.Scope.Defer when the
// owning scope is released — strictly after the cell's task has
// finished running — and by Recycle. The compare-and-swap guarantees
// exactly one recycle per checkout no matter how the two paths
// interleave. SMT siblings and cores built with pooling off are dropped
// instead.
func (c *Core) recycle(gen uint64) {
	if !c.poolGen.CompareAndSwap(gen, gen+1) {
		return
	}
	if c.noPool {
		return
	}
	// Drop everything that could pin a previous cell's memory while the
	// core sits idle in the pool: memory images, loaded code, decoded
	// blocks, thunk closures (which capture kernels) and hooks. The
	// geometry-sized arrays — the expensive part — stay.
	c.Phys, c.PTs = nil, nil
	c.Nested = nil
	c.programs = nil
	c.clearXlateCaches() // lastPT would pin the previous cell's page table
	clear(c.Thunks)
	c.clearDecodedBlocks()
	c.OnSyscall, c.OnTrap, c.OnVMExit, c.OnRetire = nil, nil, nil, nil
	c.FI = nil
	c.scope = nil
	c.ssbSeen = nil
	poolFor(c.Model.Uarch).Put(c)
}
