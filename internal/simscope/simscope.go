// Package simscope carries per-simulation-cell determinism state to the
// code that needs it without threading a context parameter through every
// constructor in the simulator.
//
// A Scope travels implicitly with a goroutine (Enter/Current, keyed by
// goroutine ID) and holds everything that used to live in process-global
// state and therefore broke determinism the moment two experiments ran
// concurrently:
//
//   - the fault-injection seed and the activation snapshot captured when
//     the cell was scheduled, so injector streams derive from the cell's
//     identity instead of global creation order;
//   - the watchdog cycle budget the cell was scheduled under, so a
//     budget change for a later batch cannot leak into a still-queued
//     cell;
//   - a cycle accumulator, replacing the process-wide counter for
//     per-experiment cost attribution;
//   - the most recently fired fault point, replacing the global
//     last-fired register for failure attribution;
//   - the Options naming which host-side accelerators the cell's
//     simulator layers may use, so an oracle (reference) run and a fast
//     run can share one process without a process-global switch.
//
// The package sits below faultinject and cpu in the dependency order and
// imports nothing but gls, so every simulator layer can consult it.
package simscope

import (
	"sync"
	"sync/atomic"

	"spectrebench/internal/gls"
)

// Options selects the reference oracles the simulator falls back to.
// Every field turns one host-side accelerator off; the zero value is the
// production fast path. Output is byte-identical under every setting —
// that is what makes each "off" path an oracle for its accelerator.
type Options struct {
	// NoBlockCache runs the reference interpreter (cpu.Step) instead of
	// decoded basic blocks.
	NoBlockCache bool
	// NoSuperblock stops decoded blocks from chaining into their
	// resolved successors.
	NoSuperblock bool
	// NoMemFast uses eager cache/TLB flushes, full way scans and no
	// translation or page pointer caches.
	NoMemFast bool
	// NoCorePool constructs every core fresh instead of recycling one.
	NoCorePool bool
	// NoCheckpoint rebuilds every warmup prefix instead of forking the
	// process-wide snapshot.
	NoCheckpoint bool
	// NoDedup simulates every display key instead of folding canonical
	// equivalence classes onto one execution (engine only).
	NoDedup bool
	// NoPlan schedules cells FIFO instead of bucketing them by warmup
	// prefix (engine only).
	NoPlan bool
}

// OptionsOf returns s's options, or the zero (all-fast) value for a nil
// scope: code running outside any managed scope takes the fast path.
func OptionsOf(s *Scope) Options {
	if s == nil {
		return Options{}
	}
	return s.Options
}

// Scope is the determinism context for one unit of simulation (a cell or
// a supervised experiment attempt). The exported fields are set before
// Enter and read-only afterwards; the accumulators are safe for
// concurrent use (a scope may be shared by an experiment goroutine and
// the sweep tasks it fans out).
type Scope struct {
	// FaultSeed roots injector derivation for cores constructed under
	// this scope. For a cell it is the hash of the cell key; for an
	// experiment attempt it is the (seed, id, attempt) derivation.
	FaultSeed uint64
	// Fault is the opaque fault-injection activation snapshot captured
	// when the scope was created (nil = faults off for this scope, even
	// if a global activation appears later).
	Fault any
	// Budget is the watchdog cycle budget for cores constructed under
	// this scope (0 = unlimited). Only consulted when HasBudget is set;
	// otherwise cores fall back to the process default.
	Budget    uint64
	HasBudget bool
	// Tag carries an arbitrary scheduler handle (the harness stores its
	// engine here so experiment code finds it without a global).
	Tag any
	// Options selects the oracles for everything constructed under this
	// scope. The engine stamps its own options onto every cell scope.
	Options Options

	seq       atomic.Uint64
	cycles    atomic.Uint64
	lastFired atomic.Uint32

	// releaseMu guards releases: a scope shared by an experiment attempt
	// and the sweep tasks it fans out sees concurrent Defer calls.
	releaseMu sync.Mutex
	releases  []func()
	released  bool
}

// NextSeq returns the next injector-derivation sequence number in this
// scope (1, 2, ...). Construction order within a scope is deterministic,
// so the sequence decorrelates sibling cores reproducibly.
func (s *Scope) NextSeq() uint64 { return s.seq.Add(1) }

// AddCycles charges simulated cycles to the scope.
func (s *Scope) AddCycles(n uint64) {
	if s != nil && n > 0 {
		s.cycles.Add(n)
	}
}

// Cycles returns the simulated cycles charged so far.
func (s *Scope) Cycles() uint64 {
	if s == nil {
		return 0
	}
	return s.cycles.Load()
}

// NoteFired records p as the most recently fired fault point.
func (s *Scope) NoteFired(p uint8) {
	if s != nil {
		s.lastFired.Store(uint32(p) + 1)
	}
}

// LastFired returns the most recently fired fault point and whether any
// point fired under this scope.
func (s *Scope) LastFired() (uint8, bool) {
	if s == nil {
		return 0, false
	}
	v := s.lastFired.Load()
	if v == 0 {
		return 0, false
	}
	return uint8(v - 1), true
}

// Defer registers fn to run when the scope is released. The scope owner
// (the engine for per-cell scopes, the supervisor for attempt scopes)
// calls Release exactly once, after every task running under the scope
// has completed — which is what lets resource layers (the CPU core pool)
// hang reclamation off the scope without knowing who scheduled it.
// Registering on an already-released scope drops fn silently: cleanups
// here are reclamation opportunities (recycle a core into a pool), and
// for those, leaking to the garbage collector is always safe while
// running early against a live resource never is.
func (s *Scope) Defer(fn func()) {
	if s == nil {
		return
	}
	s.releaseMu.Lock()
	if !s.released {
		s.releases = append(s.releases, fn)
	}
	s.releaseMu.Unlock()
}

// Release runs the scope's deferred cleanups (LIFO, like defer) and
// marks the scope released. Safe to call more than once; later calls are
// no-ops. Call only when no task can still be running under the scope.
func (s *Scope) Release() {
	if s == nil {
		return
	}
	s.releaseMu.Lock()
	fns := s.releases
	s.releases = nil
	s.released = true
	s.releaseMu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// scopes maps goroutine ID -> *Scope (possibly nil: an explicit
// "no scope" shadowing an outer one while a worker runs an unscoped
// task).
var scopes sync.Map

// Enter installs s (which may be nil) as the calling goroutine's current
// scope and returns a restore function that reinstates the previous
// binding. Always call the restore function on the same goroutine.
func Enter(s *Scope) (restore func()) {
	return EnterG(gls.ID(), s)
}

// EnterG is Enter for a caller that has already resolved its goroutine
// ID (engine workers cache theirs once at startup): it skips the
// runtime.Stack parse that dominates Enter's cost on the worker path.
// id must be the calling goroutine's own ID, and the restore function
// must run on that same goroutine.
func EnterG(id uint64, s *Scope) (restore func()) {
	prev, had := scopes.Load(id)
	scopes.Store(id, s)
	return func() {
		if had {
			scopes.Store(id, prev)
		} else {
			scopes.Delete(id)
		}
	}
}

// Current returns the calling goroutine's scope, or nil.
func Current() *Scope {
	return CurrentG(gls.ID())
}

// CurrentG is Current with the goroutine ID supplied by the caller
// (see EnterG).
func CurrentG(id uint64) *Scope {
	v, ok := scopes.Load(id)
	if !ok {
		return nil
	}
	s, _ := v.(*Scope)
	return s
}
