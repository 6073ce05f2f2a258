// Package parsec reimplements the three PARSEC kernels the paper uses
// (§4.5, Figure 5): swaptions, facesim, and bodytrack. They are
// compute-bound programs with no syscalls in their hot loops, chosen for
// their different working-set sizes and — what Figure 5 turns on —
// different densities of tight store-to-load dependencies, which is the
// traffic Speculative Store Bypass Disable taxes.
package parsec

import (
	"fmt"

	"spectrebench/internal/checkpoint"
	"spectrebench/internal/cpu"
	"spectrebench/internal/isa"
	"spectrebench/internal/kernel"
	"spectrebench/internal/model"
	"spectrebench/internal/simscope"
)

// Benchmark is one PARSEC kernel.
type Benchmark struct {
	Name  string
	Build func(a *isa.Asm)
}

// Suite returns swaptions, facesim, and bodytrack.
func Suite() []Benchmark {
	return []Benchmark{
		{Name: "swaptions", Build: buildSwaptions},
		{Name: "facesim", Build: buildFacesim},
		{Name: "bodytrack", Build: buildBodytrack},
	}
}

const (
	dataVA  = kernel.UserDataBase
	checkVA = kernel.UserDataBase + 0x3f00
)

// emitFPWork pads an iteration with n alternating FP multiply/add pairs
// on registers 7 and 5 (the kernels' arithmetic between memory phases).
func emitFPWork(a *isa.Asm, n int) {
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			a.FMul(7, 5)
		} else {
			a.FAdd(7, 5)
		}
	}
}

// Run executes one kernel under the kernel/mitigation configuration,
// optionally with SSBD forced on (Figure 5), returning total cycles.
func Run(m *model.CPU, mit kernel.Mitigations, name string) (float64, error) {
	var bench *Benchmark
	for i := range Suite() {
		if Suite()[i].Name == name {
			b := Suite()[i]
			bench = &b
		}
	}
	if bench == nil {
		return 0, fmt.Errorf("parsec: unknown benchmark %q", name)
	}

	c := cpu.New(m)
	defer c.Recycle()
	k := kernel.New(c, mit)

	prog, err := benchProgram(c.Scope(), bench)
	if err != nil {
		return 0, err
	}
	p := k.NewProcess("parsec-"+name, prog)
	start := c.Cycles
	if err := k.RunProcessToCompletion(80_000_000); err != nil {
		return 0, err
	}
	if got := c.Phys.Read64((uint64(p.PID) << 32) + checkVA); got == 0 {
		return 0, fmt.Errorf("parsec %s: no checksum recorded", name)
	}
	return float64(c.Cycles - start), nil
}

// assembled carries a benchmark program (or its deterministic assembly
// failure) through the checkpoint registry.
type assembled struct {
	prog *isa.Program
	err  error
}

// benchProgram assembles b's program, reusing the checkpointed assembly
// when the same kernel has run before — the emitted code depends only
// on the benchmark name, and the program is immutable once assembled.
func benchProgram(sc *simscope.Scope, b *Benchmark) (*isa.Program, error) {
	v, ok := checkpoint.Get(sc, "parsec/prog|"+b.Name, func() any {
		prog, err := assembleBench(b)
		return &assembled{prog: prog, err: err}
	})
	if !ok {
		return assembleBench(b)
	}
	asm := v.(*assembled)
	return asm.prog, asm.err
}

// assembleBench emits the kernel body followed by the exit path.
func assembleBench(b *Benchmark) (*isa.Program, error) {
	a := isa.NewAsm()
	b.Build(a)
	// Exit with the checksum stored for validation.
	a.MovI(isa.R1, 0)
	a.MovI(isa.R7, kernel.SysExit)
	a.Syscall()
	return a.Assemble(kernel.UserCodeBase)
}

// buildSwaptions emits the HJM-path-pricing-like kernel: per simulated
// path, forward rates are updated in place and immediately re-read for
// discounting — a dense store→load dependency per loop iteration, the
// worst case for SSBD.
func buildSwaptions(a *isa.Asm) {
	const paths = 120
	const tenors = 16

	a.MovI(isa.R1, dataVA) // rates[]
	// Initialise rates.
	a.MovI(isa.R2, 0)
	a.FMovI(1, 0.05)
	a.Label("init")
	a.Mov(isa.R3, isa.R2)
	a.ShlI(isa.R3, 3)
	a.Add(isa.R3, isa.R1)
	a.FStore(isa.R3, 0, 1)
	a.AddI(isa.R2, 1)
	a.CmpI(isa.R2, tenors)
	a.Jne("init")

	a.FMovI(4, 0.0)    // price accumulator
	a.FMovI(5, 1.0001) // drift factor
	a.FMovI(7, 0.9999) // volatility factor
	a.MovI(isa.R8, paths)
	a.Label("path")
	a.MovI(isa.R2, 0)
	a.Label("tenor")
	a.Mov(isa.R3, isa.R2)
	a.ShlI(isa.R3, 3)
	a.Add(isa.R3, isa.R1)
	// rate = rates[t] * drift  (load → FP → store)
	a.FLoad(2, isa.R3, 0)
	a.FMul(2, 5)
	a.FStore(isa.R3, 0, 2)
	// discount += rates[t]: an immediate reload of the just-stored
	// value — the forwarding SSBD blocks, once per short iteration.
	a.FLoad(3, isa.R3, 0)
	a.FAdd(4, 3)
	// HJM drift/vol arithmetic between memory phases.
	emitFPWork(a, 7)
	a.AddI(isa.R2, 1)
	a.CmpI(isa.R2, tenors)
	a.Jne("tenor")
	a.SubI(isa.R8, 1)
	a.CmpI(isa.R8, 0)
	a.Jne("path")

	// Checksum: scaled price.
	a.FMovI(6, 1000.0)
	a.FMul(4, 6)
	a.FToI(isa.R9, 4)
	a.MovI(isa.R10, checkVA)
	a.Store(isa.R10, 0, isa.R9)
}

// buildFacesim emits the mesh-relaxation-like kernel: a stencil update
// where each node's new position is stored and re-read one neighbour
// later — a medium store→load dependency density.
func buildFacesim(a *isa.Asm) {
	const nodes = 64
	const iters = 40

	a.MovI(isa.R1, dataVA)
	a.MovI(isa.R2, 0)
	a.Label("finit")
	a.Mov(isa.R3, isa.R2)
	a.ShlI(isa.R3, 3)
	a.Add(isa.R3, isa.R1)
	a.IToF(1, isa.R2)
	a.FStore(isa.R3, 0, 1)
	a.AddI(isa.R2, 1)
	a.CmpI(isa.R2, nodes)
	a.Jne("finit")

	a.FMovI(5, 0.5)
	a.FMovI(6, 0.0) // strain accumulator
	a.FMovI(7, 1.0002)
	a.MovI(isa.R8, iters)
	a.Label("fiter")
	a.MovI(isa.R2, 1)
	a.Label("fnode")
	a.Mov(isa.R3, isa.R2)
	a.ShlI(isa.R3, 3)
	a.Add(isa.R3, isa.R1)
	// pos[i] = (pos[i-1] + pos[i]) * 0.5, then the new position is
	// immediately re-read for the strain metric — one blocked forward
	// per (longer) iteration: medium SSBD density.
	a.FLoad(1, isa.R3, -8)
	a.FLoad(2, isa.R3, 0)
	a.FAdd(1, 2)
	a.FMul(1, 5)
	a.FStore(isa.R3, 0, 1)
	a.FLoad(2, isa.R3, 0) // strain term: blocked forward under SSBD
	a.FAdd(6, 2)
	// Elasticity arithmetic padding the iteration.
	emitFPWork(a, 16)
	a.AddI(isa.R2, 1)
	a.CmpI(isa.R2, nodes)
	a.Jne("fnode")
	a.SubI(isa.R8, 1)
	a.CmpI(isa.R8, 0)
	a.Jne("fiter")

	a.Mov(isa.R3, isa.R1)
	a.FLoad(3, isa.R3, (nodes-1)*8)
	a.FMovI(6, 100.0)
	a.FMul(3, 6)
	a.FToI(isa.R9, 3)
	a.MovI(isa.R10, checkVA)
	a.Store(isa.R10, 0, isa.R9)
}

// buildBodytrack emits the particle-scoring-like kernel: dominated by
// arithmetic with memory touched only once per particle — sparse
// forwarding, so SSBD barely shows (the Figure 5 low bar).
func buildBodytrack(a *isa.Asm) {
	const particles = 1200

	a.MovI(isa.R1, dataVA)
	a.FMovI(4, 0.0) // score accumulator
	a.FMovI(5, 1.3)
	a.FMovI(6, 0.7)
	a.MovI(isa.R8, particles)
	a.Label("particle")
	// Weight computation: a long chain of FP ops, little memory.
	a.IToF(1, isa.R8)
	a.FMul(1, 5)
	a.FAdd(1, 6)
	a.FMul(1, 5)
	a.FAdd(1, 6)
	a.FMul(1, 6)
	a.FAdd(4, 1)
	emitFPWork(a, 28)
	// One store + immediate weight normalisation reload per particle —
	// a single blocked forward per long iteration: sparse density.
	a.Mov(isa.R3, isa.R8)
	a.AndI(isa.R3, 63)
	a.ShlI(isa.R3, 3)
	a.Add(isa.R3, isa.R1)
	a.FStore(isa.R3, 0, 1)
	a.FLoad(2, isa.R3, 0)
	a.FAdd(4, 2)
	a.SubI(isa.R8, 1)
	a.CmpI(isa.R8, 0)
	a.Jne("particle")

	a.FToI(isa.R9, 4)
	a.MovI(isa.R10, checkVA)
	a.Store(isa.R10, 0, isa.R9)
}

// SSBDSlowdown measures the Figure 5 number for one benchmark on one
// CPU: the slowdown of forcing SSBD on versus the default configuration.
func SSBDSlowdown(m *model.CPU, name string) (float64, error) {
	base, err := Run(m, kernel.Defaults(m), name)
	if err != nil {
		return 0, err
	}
	forced := kernel.BootParams{SSBDOn: true}.Apply(m, kernel.Defaults(m))
	with, err := Run(m, forced, name)
	if err != nil {
		return 0, err
	}
	return (with - base) / base, nil
}

// DefaultMitigationOverhead measures §4.5: the overhead of the default
// mitigation set on a compute-only workload (expected ≈ 0).
func DefaultMitigationOverhead(m *model.CPU, name string) (float64, error) {
	off := kernel.BootParams{MitigationsOff: true}.Apply(m, kernel.Defaults(m))
	base, err := Run(m, off, name)
	if err != nil {
		return 0, err
	}
	with, err := Run(m, kernel.Defaults(m), name)
	if err != nil {
		return 0, err
	}
	return (with - base) / base, nil
}
