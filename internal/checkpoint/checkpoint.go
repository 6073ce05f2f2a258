// Package checkpoint implements checkpointed warmup: a process-wide
// registry of immutable snapshots taken after a workload's warmup
// prefix, keyed by everything that determines the warmed-up state (the
// cell-key prefix: workload identity, uarch, warmup-relevant
// configuration). Cells that share a prefix fork from the snapshot
// instead of re-simulating it: memory forks by copy-on-write page
// sharing (mem.Phys.Snapshot/NewPhys — a snapshot costs a page-table
// copy, not a memory-image clone), and core/kernel state is restored by
// the owning packages' clone hooks.
//
// Determinism contract. A forked cell must be byte-identical to a cold
// cell, including its fault-injection draw sequence. Two rules enforce
// that:
//
//   - Host-side checkpoints (parsed ASTs, compiled/assembled programs)
//     never touch simulated state and draw nothing from the injector;
//     they are always eligible.
//   - Machine checkpoints (booted VMs) capture state produced by
//     simulated execution, which consumes injector draws. They are
//     created and consumed only when the requesting core has no active
//     fault-injection stream (Injector.Active() == false): with -faults
//     on, every consumer takes the cold path, so the draw sequence is
//     the cold sequence by construction.
//
// Concurrency. The registry is a sync.Map of per-key once-cells: under
// -jobs N, whichever worker reaches a key first builds the snapshot and
// everyone else blocks on it. Snapshot values are immutable after
// construction, so sharing across workers is safe, and the contents are
// a pure function of the key — whichever cell wins the race builds the
// same bytes.
package checkpoint

import (
	"sync"
	"sync/atomic"

	"spectrebench/internal/simscope"
)

// entry is one once-guarded snapshot slot.
type entry struct {
	once sync.Once
	v    any
}

// registry is the process-wide key → snapshot map.
var registry sync.Map

// hits/misses count registry consultations (host-side observability
// only — never printed to stdout, so output stays byte-identical with
// the registry cold, warm, or disabled).
var hits, misses atomic.Uint64

// Stats reports how many Get calls were served from an existing
// snapshot and how many built one.
func Stats() (h, m uint64) { return hits.Load(), misses.Load() }

// Get returns the snapshot stored under key, building it with build on
// first use. All callers of the same key receive the same value; build
// runs exactly once per key for the life of the process. Returns
// (nil, false) without consulting the registry when sc's options set
// NoCheckpoint — the caller must then run its cold path. sc is the
// simulation scope the caller runs under (typically its core's Scope;
// nil means checkpointing on): kernel boots call Get several times each,
// too often to resolve the goroutine's scope on every call.
//
// build must produce a value that is (a) immutable or only ever cloned
// from, and (b) a pure function of key: the key must encode every input
// the snapshot depends on. Snapshots hold no host-side accelerator
// state, so cells with different Options share them safely.
func Get(sc *simscope.Scope, key string, build func() any) (any, bool) {
	if simscope.OptionsOf(sc).NoCheckpoint {
		return nil, false
	}
	e, loaded := registry.Load(key)
	if !loaded {
		e, loaded = registry.LoadOrStore(key, &entry{})
	}
	ent := e.(*entry)
	if loaded {
		hits.Add(1)
	} else {
		misses.Add(1)
	}
	ent.once.Do(func() { ent.v = build() })
	return ent.v, true
}

// Clear drops every snapshot and zeroes the hit/miss counters (tests
// that need a cold registry; the registry is process-wide, so such
// tests must not run in parallel with other simulations).
func Clear() {
	registry.Range(func(k, _ any) bool {
		registry.Delete(k)
		return true
	})
	hits.Store(0)
	misses.Store(0)
}
