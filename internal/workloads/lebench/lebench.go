// Package lebench reimplements the LEBench microbenchmark suite (Ren et
// al., SOSP'19; the WARD-distributed variant the paper uses) against the
// simulated kernel. Each benchmark stresses one core OS operation; the
// paper's Figure 2 reports the geometric mean slowdown of the suite
// under successively disabled mitigations.
package lebench

import (
	"fmt"
	"sync/atomic"

	"spectrebench/internal/checkpoint"
	"spectrebench/internal/cpu"
	"spectrebench/internal/isa"
	"spectrebench/internal/kernel"
	"spectrebench/internal/model"
	"spectrebench/internal/simscope"
)

// Benchmark is one LEBench microbenchmark.
type Benchmark struct {
	Name string
	// Iters is the in-simulation repetition count (kept modest: the
	// simulator is deterministic, so variance comes only from state).
	Iters int
	// Build emits the benchmark body (one iteration inside a counted
	// loop provided by the driver).
	Build func(a *isa.Asm)
	// Epilogue, if set, emits cleanup after the measured loop (e.g.
	// signalling a partner process to exit).
	Epilogue func(a *isa.Asm)
	// TwoProc marks benchmarks that need a forked partner process
	// (context switch / pipe ping-pong).
	TwoProc bool
}

// Suite returns the benchmark list. The mix mirrors LEBench's coverage:
// null syscalls, file read/write at two sizes, mmap/munmap, page faults,
// fork, thread creation, context switches, select, and send/recv.
func Suite() []Benchmark {
	return []Benchmark{
		{Name: "getpid", Iters: 60, Build: buildGetpid},
		{Name: "read-small", Iters: 40, Build: buildRead(8 * 1024)},
		{Name: "read-big", Iters: 8, Build: buildRead(56 * 1024)},
		{Name: "write-small", Iters: 40, Build: buildWrite(8 * 1024)},
		{Name: "write-big", Iters: 8, Build: buildWrite(56 * 1024)},
		{Name: "read-huge", Iters: 4, Build: buildRead(256 * 1024)},
		{Name: "write-huge", Iters: 4, Build: buildWrite(256 * 1024)},
		{Name: "mmap", Iters: 12, Build: buildMmap},
		{Name: "munmap", Iters: 12, Build: buildMunmap},
		{Name: "pagefault", Iters: 16, Build: buildPageFault},
		{Name: "mmap-huge", Iters: 4, Build: buildMmapHuge},
		{Name: "fork", Iters: 6, Build: buildFork},
		{Name: "thread-create", Iters: 6, Build: buildThreadCreate},
		{Name: "ctx-switch", Iters: 24, Build: buildYield, Epilogue: stopPartner, TwoProc: true},
		{Name: "send-recv", Iters: 20, Build: buildSendRecv},
		{Name: "select", Iters: 30, Build: buildSelect},
	}
}

// Result is one benchmark's measured cost.
type Result struct {
	Name   string
	Cycles float64 // per iteration
}

// Run executes every benchmark on a fresh machine with the given model
// and mitigation set, returning per-iteration cycle costs.
func Run(m *model.CPU, mit kernel.Mitigations) ([]Result, error) {
	out := make([]Result, 0, len(Suite()))
	for _, b := range Suite() {
		cyc, err := runOne(m, mit, b)
		if err != nil {
			return nil, fmt.Errorf("lebench %s: %w", b.Name, err)
		}
		out = append(out, Result{Name: b.Name, Cycles: cyc})
	}
	return out, nil
}

// runOne measures one benchmark on a fresh machine. The machine is dead
// once the per-iteration cycle count is extracted, so the core goes
// straight back to the pool.
func runOne(m *model.CPU, mit kernel.Mitigations, b Benchmark) (float64, error) {
	c := cpu.New(m)
	defer c.Recycle()
	k := kernel.New(c, mit)
	return RunOn(c, k, b)
}

// RunOn measures one benchmark on a prepared machine (the vmm package
// uses this to run the suite inside a guest). It returns per-iteration
// cycles.
func RunOn(c *cpu.Core, k *kernel.Kernel, b Benchmark) (float64, error) {
	prog, err := benchProgram(c.Scope(), b)
	if err != nil {
		return 0, err
	}
	p := k.NewProcess("lebench-"+b.Name, prog)
	if err := k.RunProcessToCompletion(60_000_000); err != nil {
		return 0, err
	}
	elapsedPA := (uint64(p.PID) << 32) + kernel.UserDataBase + 0x3f00
	elapsed := c.Phys.Read64(elapsedPA)
	if elapsed == 0 {
		return 0, fmt.Errorf("no elapsed time recorded")
	}
	return float64(elapsed) / float64(b.Iters), nil
}

// assembled carries a benchmark program (or its deterministic assembly
// failure) through the checkpoint registry.
type assembled struct {
	prog *isa.Program
	err  error
}

// benchProgram assembles b's driver program. The emitted code is a pure
// function of the benchmark definition (label uniquifiers vary between
// builds but resolve to identical targets before assembly), so under
// checkpointed warmup each benchmark is assembled once per process and
// the immutable program is shared by every machine that runs it — host
// and guest alike.
func benchProgram(sc *simscope.Scope, b Benchmark) (*isa.Program, error) {
	v, ok := checkpoint.Get(sc, "lebench/prog|"+b.Name, func() any {
		prog, err := assembleBench(b)
		return &assembled{prog: prog, err: err}
	})
	if !ok {
		return assembleBench(b)
	}
	asm := v.(*assembled)
	return asm.prog, asm.err
}

// assembleBench emits and assembles one benchmark's driver: prologue,
// one warm-up iteration, the measured loop bracketed by TSC reads, and
// the exit path.
func assembleBench(b Benchmark) (*isa.Program, error) {
	a := isa.NewAsm()
	prologue(a, b)
	// Warm-up iteration (populates TLB, caches, predictor state).
	b.Build(a)
	// Measured loop.
	a.MovI(isa.R9, int64(b.Iters))
	emitSyscall(a, kernel.SysGetTSC)
	a.Mov(isa.R8, isa.R0) // start cycles
	a.Label("bench_loop")
	b.Build(a)
	a.SubI(isa.R9, 1)
	a.CmpI(isa.R9, 0)
	a.Jne("bench_loop")
	emitSyscall(a, kernel.SysGetTSC)
	a.Sub(isa.R0, isa.R8) // elapsed
	// Park the result where the host can read it.
	a.MovI(isa.R10, kernel.UserDataBase+0x3f00)
	a.Store(isa.R10, 0, isa.R0)
	if b.Epilogue != nil {
		b.Epilogue(a)
	}
	a.MovI(isa.R1, 0)
	emitSyscall(a, kernel.SysExit)
	return a.Assemble(kernel.UserCodeBase)
}

func emitSyscall(a *isa.Asm, nr int64) {
	a.MovI(isa.R7, nr)
	a.Syscall()
}

// prologue emits per-benchmark setup executed once (fd setup, partner
// process creation).
func prologue(a *isa.Asm, b Benchmark) {
	switch b.Name {
	case "read-small", "read-big", "write-small", "write-big",
		"read-huge", "write-huge", "select":
		// fd 3: a 64 KiB in-memory file.
		a.MovI(isa.R1, 0)
		a.MovI(isa.R2, 64*1024)
		emitSyscall(a, kernel.SysOpen)
	case "send-recv":
		// A pipe to loop data through (fds 3=read end, 4=write end).
		emitSyscall(a, kernel.SysPipe)
	case "ctx-switch":
		// Fork a partner that yields until the parent raises the stop
		// flag in shared memory.
		emitSyscall(a, kernel.SysFork)
		a.CmpI(isa.R0, 0)
		a.Jne("parent")
		a.Label("child_spin")
		a.MovI(isa.R12, stopFlagVA)
		a.Load(isa.R13, isa.R12, 0)
		a.CmpI(isa.R13, 0)
		a.Jne("child_exit")
		emitSyscall(a, kernel.SysYield)
		a.Jmp("child_spin")
		a.Label("child_exit")
		a.MovI(isa.R1, 0)
		emitSyscall(a, kernel.SysExit)
		a.Label("parent")
	case "pagefault":
		// A large lazily-mapped region; each iteration touches a fresh
		// page. R11 = next page to touch.
		a.MovI(isa.R1, 512)
		emitSyscall(a, kernel.SysMmap)
		a.Mov(isa.R11, isa.R0)
	case "mmap":
		// nothing
	case "munmap":
		// nothing (each iteration maps then unmaps)
	}
}

func buildGetpid(a *isa.Asm) {
	emitSyscall(a, kernel.SysGetPID)
}

func buildRead(n int64) func(a *isa.Asm) {
	return func(a *isa.Asm) {
		a.MovI(isa.R1, 3)
		a.MovI(isa.R2, kernel.UserDataBase)
		a.MovI(isa.R3, n)
		emitSyscall(a, kernel.SysRead)
	}
}

func buildWrite(n int64) func(a *isa.Asm) {
	return func(a *isa.Asm) {
		a.MovI(isa.R1, 3)
		a.MovI(isa.R2, kernel.UserDataBase)
		a.MovI(isa.R3, n)
		emitSyscall(a, kernel.SysWrite)
	}
}

func buildMmap(a *isa.Asm) {
	a.MovI(isa.R1, 64)
	emitSyscall(a, kernel.SysMmap)
}

func buildMmapHuge(a *isa.Asm) {
	a.MovI(isa.R1, 512)
	emitSyscall(a, kernel.SysMmap)
	a.Mov(isa.R1, isa.R0)
	a.MovI(isa.R2, 512)
	emitSyscall(a, kernel.SysMunmap)
}

func buildMunmap(a *isa.Asm) {
	a.MovI(isa.R1, 64)
	emitSyscall(a, kernel.SysMmap)
	a.Mov(isa.R1, isa.R0)
	a.MovI(isa.R2, 64)
	emitSyscall(a, kernel.SysMunmap)
}

func buildPageFault(a *isa.Asm) {
	// Touch the next untouched page of the prologue's mapping.
	a.MovI(isa.R12, 7)
	a.Store(isa.R11, 0, isa.R12)
	a.AddI(isa.R11, 4096)
}

func buildFork(a *isa.Asm) {
	id := uniq()
	emitSyscall(a, kernel.SysFork)
	a.CmpI(isa.R0, 0)
	a.Jne("fork_parent_" + id)
	// Child: exit immediately.
	a.MovI(isa.R1, 0)
	emitSyscall(a, kernel.SysExit)
	a.Label("fork_parent_" + id)
}

func buildThreadCreate(a *isa.Asm) {
	// Spawn a thread that exits immediately. Threads run only when the
	// parent is descheduled, so a single shared stack is safe.
	id := uniq()
	a.Jmp("spawn_" + id)
	a.Label("thr_entry_" + id)
	a.MovI(isa.R1, 0)
	emitSyscall(a, kernel.SysExit)
	a.Label("spawn_" + id)
	a.MovLabel(isa.R1, "thr_entry_"+id)
	a.MovI(isa.R2, kernel.UserDataBase+0x8000) // thread stack top
	emitSyscall(a, kernel.SysThreadSpawn)
}

// stopPartner raises the shared stop flag for ctx-switch partners.
func stopPartner(a *isa.Asm) {
	a.MovI(isa.R12, stopFlagVA)
	a.MovI(isa.R13, 1)
	a.Store(isa.R12, 0, isa.R13)
	// One more yield so the partner observes the flag and exits before
	// the parent (keeps teardown deterministic).
	emitSyscall(a, kernel.SysYield)
}

// stopFlagVA is the shared-memory flag ctx-switch partners poll.
const stopFlagVA = kernel.UserDataBase + 0x3f80

func buildYield(a *isa.Asm) {
	emitSyscall(a, kernel.SysYield)
}

func buildSendRecv(a *isa.Asm) {
	// Write 64 bytes into the pipe, read them back (send+recv pair).
	a.MovI(isa.R1, 4) // write end
	a.MovI(isa.R2, kernel.UserDataBase)
	a.MovI(isa.R3, 1024)
	emitSyscall(a, kernel.SysSend)
	a.MovI(isa.R1, 3) // read end
	a.MovI(isa.R2, kernel.UserDataBase+0x1000)
	a.MovI(isa.R3, 1024)
	emitSyscall(a, kernel.SysRecv)
}

func buildSelect(a *isa.Asm) {
	a.MovI(isa.R1, 8) // nfds
	a.MovI(isa.R2, 0) // non-blocking
	emitSyscall(a, kernel.SysSelect)
}

// uniqCounter is atomic because suites assemble concurrently on engine
// workers; the labels only need process-wide uniqueness, not any
// particular order.
var uniqCounter atomic.Int64

func uniq() string {
	return fmt.Sprintf("%d", uniqCounter.Add(1))
}
