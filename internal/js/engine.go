package js

import (
	"fmt"

	"spectrebench/internal/checkpoint"
	"spectrebench/internal/cpu"
	"spectrebench/internal/isa"
	"spectrebench/internal/kernel"
	"spectrebench/internal/model"
	"spectrebench/internal/simscope"
)

// Result is the outcome of one engine run.
type Result struct {
	// Reports holds the values passed to report(), in order.
	Reports []int64
	// Cycles is the total simulated cycle count of the run.
	Cycles uint64
	// Instructions is the retired-instruction count.
	Instructions uint64
	// ICMisses counts inline-cache slow paths taken.
	ICMisses uint64
}

// Engine runs mini-JS programs on a simulated machine. One engine is
// one sandboxed content process: it enters seccomp at startup (so the
// pre-5.16 kernel default enables SSBD for it, §4.3).
type Engine struct {
	cpuModel *model.CPU
	kernMit  kernel.Mitigations
	jsMit    Mitigations

	// CPUSetup, when set, customises the core before the run (used by
	// what-if experiments, e.g. hypothetical guard-fusion hardware).
	CPUSetup func(*cpu.Core)
}

// NewEngine creates an engine for the given CPU model, kernel mitigation
// set, and JIT mitigation set.
func NewEngine(m *model.CPU, kmit kernel.Mitigations, jsMit Mitigations) *Engine {
	return &Engine{cpuModel: m, kernMit: kmit, jsMit: jsMit}
}

// compiled is the host-side product of one parse+JIT: the assembled
// program, the shape table it interned, and the IC site list. All three
// are read-only at run time (the runtime's inline-cache state lives in
// simulated memory, not in these structures), so one compiled value is
// shared by every run of the same source under the same JIT mitigation
// set — including concurrent runs under -jobs N.
type compiled struct {
	code   *isa.Program
	shapes *shapeTable
	sites  []siteInfo
	err    error // deterministic parse/compile failure, replayed per run
}

// compileSource parses and JIT-compiles src under the given mitigation
// set. Errors are carried in the result so a cached failure replays
// identically to a cold one.
func compileSource(src string, jsMit Mitigations) *compiled {
	prog, err := Parse(src)
	if err != nil {
		return &compiled{err: err}
	}
	shapes := newShapeTable()
	code, sites, err := compile(prog, shapes, jsMit)
	if err != nil {
		return &compiled{err: err}
	}
	return &compiled{code: code, shapes: shapes, sites: sites}
}

// Run parses, JIT-compiles, and executes src, returning the run result.
// The parse+JIT product is a pure function of (source, JIT mitigations),
// so under checkpointed warmup it is compiled once per distinct pair and
// reused by every cell that runs the same source.
func (e *Engine) Run(src string, maxSteps int) (*Result, error) {
	key := fmt.Sprintf("js/compile|%+v|", e.jsMit) + src
	if v, ok := checkpoint.Get(simscope.Current(), key, func() any { return compileSource(src, e.jsMit) }); ok {
		return e.runCompiled(v.(*compiled), maxSteps)
	}
	return e.runCompiled(compileSource(src, e.jsMit), maxSteps)
}

// RunProgram JIT-compiles and executes an already-parsed (or
// programmatically constructed) program. Programs built in memory have
// no source text to key a checkpoint on, so this path always compiles.
func (e *Engine) RunProgram(prog *Program, maxSteps int) (*Result, error) {
	shapes := newShapeTable()
	code, sites, err := compile(prog, shapes, e.jsMit)
	if err != nil {
		return nil, err
	}
	return e.runCompiled(&compiled{code: code, shapes: shapes, sites: sites}, maxSteps)
}

// runCompiled executes a compiled program on a fresh machine.
func (e *Engine) runCompiled(cp *compiled, maxSteps int) (*Result, error) {
	if cp.err != nil {
		return nil, cp.err
	}
	code, shapes, sites := cp.code, cp.shapes, cp.sites

	c := cpu.New(e.cpuModel)
	defer c.Recycle()
	if e.CPUSetup != nil {
		e.CPUSetup(c)
	}
	k := kernel.New(c, e.kernMit)
	// The heap and IC site table are mapped as process-creation regions
	// so the checkpointed page-table template covers the whole engine
	// address space.
	p := k.NewProcessWithRegions("js-engine", code, []kernel.Region{
		{VA: jsHeapBase, Pages: jsHeapPages, Writable: true, NX: true},
		{VA: jsSiteBase, Pages: jsSitePages, Writable: true, NX: true},
	})
	physBase := uint64(p.PID) << 32

	rt := &runtime{
		c:        c,
		shapes:   shapes,
		sites:    sites,
		physBase: physBase,
		heapNext: jsHeapBase,
		poison:   e.jsMit.PointerPoisoning,
		reduced:  e.jsMit.ReducedTimer,
	}
	rt.install()

	if err := k.RunProcessToCompletion(maxSteps); err != nil {
		if rt.err != nil {
			// The runtime raised the real error and terminated the
			// process; the resulting kill-fault is just the mechanism.
			return nil, rt.err
		}
		return nil, fmt.Errorf("js: %w", err)
	}
	if rt.err != nil {
		return nil, rt.err
	}
	return &Result{
		Reports:      rt.reports,
		Cycles:       c.Cycles,
		Instructions: c.Instret,
		ICMisses:     rt.icMisses,
	}, nil
}

// runtime backs the JIT's thunks: allocation, report, clock, and inline
// cache misses.
type runtime struct {
	c        *cpu.Core
	shapes   *shapeTable
	sites    []siteInfo
	physBase uint64
	heapNext uint64
	poison   bool
	reduced  bool

	reports  []int64
	icMisses uint64
	err      error
}

// heapLimit is the first address past the mapped heap.
const heapLimit = jsHeapBase + jsHeapPages*4096

func (rt *runtime) install() {
	c := rt.c
	c.RegisterThunk(thunkAlloc, rt.alloc)
	c.RegisterThunk(thunkReport, rt.report)
	c.RegisterThunk(thunkClock, rt.clockThunk)
	c.RegisterThunk(thunkPropMiss, rt.propMiss)
}

func (rt *runtime) fail(format string, args ...any) {
	if rt.err == nil {
		rt.err = fmt.Errorf("js runtime: "+format, args...)
	}
	// Terminate the program: jumping to an unmapped page kills the
	// process through the kernel's fault path.
	rt.c.PC = 0xdead_0000
}

func (rt *runtime) resume() { rt.c.PC = rt.c.Regs[isa.R11] }

// alloc carves a heap block: R1 = payload words, R2 = shape id (0 for
// arrays, where the header is the length). Returns the (possibly
// poisoned) pointer in R0. A bump allocator is faithful enough — the
// benchmarks are sized to fit without collection, like Octane warmups.
func (rt *runtime) alloc(c *cpu.Core) {
	words := c.Regs[isa.R1]
	shapeID := c.Regs[isa.R2]
	size := (words + heapHeaderWords) * wordBytes
	// Align to the word size and charge a representative allocation cost.
	c.Charge(20 + words/4)
	if rt.heapNext+size > heapLimit {
		rt.fail("heap exhausted (%d words requested)", words)
		return
	}
	ptr := rt.heapNext
	rt.heapNext += size
	header := words // array: header = length
	if shapeID != 0 {
		header = shapeID
	}
	c.Phys.Write64(rt.physBase+ptr, header)
	// Pages spring up zeroed, so elements/fields start at 0.
	res := ptr
	if rt.poison {
		res ^= pointerPoison
	}
	c.Regs[isa.R0] = res
	rt.resume()
}

func (rt *runtime) report(c *cpu.Core) {
	rt.reports = append(rt.reports, int64(c.Regs[isa.R1]))
	c.Charge(30)
	rt.resume()
}

// clockThunk implements clock(): cycle-accurate by default, coarsened
// to 1µs-equivalent granularity under the reduced-timer mitigation
// (browsers dropped performance.now precision after Spectre, §2).
func (rt *runtime) clockThunk(c *cpu.Core) {
	t := c.Cycles
	if rt.reduced {
		const quantum = 2000 // ~1µs at 2 GHz
		t -= t % quantum
	}
	c.Regs[isa.R0] = t
	c.Charge(16)
	rt.resume()
}

// propMiss services an inline-cache miss: R0 = unpoisoned object
// pointer, R10 = site id. It updates the site's cached (shape, offset)
// pair and resumes at the site's retry label in R11.
func (rt *runtime) propMiss(c *cpu.Core) {
	rt.icMisses++
	siteID := c.Regs[isa.R10]
	if siteID >= uint64(len(rt.sites)) {
		rt.fail("bad IC site %d", siteID)
		return
	}
	site := rt.sites[siteID]
	objPtr := c.Regs[isa.R0]
	if objPtr < jsHeapBase || objPtr >= heapLimit {
		rt.fail("property %q on non-object value %#x", site.prop, objPtr)
		return
	}
	shapeID := c.Phys.Read64(rt.physBase + objPtr)
	shape, ok := rt.shapes.byID[shapeID]
	if !ok {
		rt.fail("property %q on array or corrupt object (header %#x)", site.prop, shapeID)
		return
	}
	slot := shape.Slot(site.prop)
	if slot < 0 {
		rt.fail("object has no property %q", site.prop)
		return
	}
	siteVA := uint64(jsSiteBase) + siteID*16
	c.Phys.Write64(rt.physBase+siteVA, shapeID)
	c.Phys.Write64(rt.physBase+siteVA+8, uint64(8+8*slot))
	// Slow paths are expensive in real engines (megamorphic lookup).
	c.Charge(220)
	rt.resume()
}
