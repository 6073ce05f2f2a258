// Batch submission: the replay & fan-out fast path.
//
// Submit pays a fixed per-cell toll — a scope allocation, a
// second-level Get, a planner lock round-trip, a wakeup check — that
// dominates once the cells themselves are cheap (a warm store replays a
// cell in microseconds; a folded follower never runs at all). For
// full-grid sweeps, where the caller holds the whole slice of cells up
// front, SubmitBatch amortizes the toll across the slice:
//
//   - One planner unit. All leaders enqueue under a single planner lock
//     acquisition, one push-sequence bump and one wakeup broadcast,
//     instead of len(cells) of each.
//   - Inline fan-out. A display key whose canonical class has already
//     finished receives the class value during submission — a struct
//     copy against a pre-closed channel — instead of allocating a done
//     channel and registering as a follower. On warm sweeps this is the
//     common case for every cell after the first of its class.
//   - Batched replay. Class leaders look the second level up through
//     one GetBatch call (stores that implement BatchSecondLevel sort
//     the reads for locality under one index lock) instead of
//     independent Gets.
//   - Deferred scopes. A cell's simscope is only allocated once the
//     cell is known to need simulating; memo hits, folds and store
//     replays allocate none.
//
// Counter contract: Hits/Misses/ClassHits/SecondLevelHits are computed
// exactly as the per-cell Submit path computes them — functions of the
// submitted key multiset alone — so `-batch on|off` cannot change a
// rendered byte. InlineFanouts/BatchedCells are batch-only telemetry.
package engine

import (
	"context"
	"runtime/pprof"

	"spectrebench/internal/cpu"
	"spectrebench/internal/faultinject"
	"spectrebench/internal/gls"
	"spectrebench/internal/simscope"
)

// BatchCell is one cell of a SubmitBatch call: a display key and the
// function that simulates it (pure with respect to the key, exactly as
// for Submit).
type BatchCell struct {
	Key Key
	Fn  func() (any, error)
}

// BatchGet is one result of a BatchSecondLevel.GetBatch lookup,
// positionally matching the requested key slice.
type BatchGet struct {
	Val    any
	Cycles uint64
	OK     bool
}

// BatchSecondLevel is an optional SecondLevel extension: a store that
// can resolve many keys in one call (one index lock, reads sorted for
// locality). SubmitBatch uses it for the class leaders of a batch;
// stores without it are consulted key by key.
type BatchSecondLevel interface {
	SecondLevel
	GetBatch(keys []Key) []BatchGet
}

// LinkRecorder is an optional SecondLevel extension: a store keeping a
// display→canonical sidecar index receives every display-key fold the
// engine performs, so a future process can resolve display keys it has
// never canonicalized. Implementations must tolerate duplicates and
// must not fail (degrade silently, like Put).
type LinkRecorder interface {
	PutLink(display, canonical Key)
}

// LinkPair is one display→canonical fold of a batch.
type LinkPair struct {
	Display, Canonical Key
}

// BatchLinkRecorder is an optional LinkRecorder extension: a store
// that can ingest a batch's folds in one call (one writer lock instead
// of one per aliased cell). SubmitBatch accumulates its folds and
// flushes them through it; recorders without it are fed pair by pair.
type BatchLinkRecorder interface {
	LinkRecorder
	PutLinkBatch(pairs []LinkPair)
}

// closedChan is the shared pre-closed done channel of tasks that are
// complete at construction time (inline fan-outs). Waiters fall through
// the select immediately; nothing ever closes it again.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// snapshot returns t's result if it has finished. The fmu acquisition
// orders the val/err/cycles writes (made before finish took the lock)
// before the reads.
func (t *Task) snapshot() (val any, err error, cycles uint64, finished bool) {
	t.fmu.Lock()
	defer t.fmu.Unlock()
	return t.val, t.err, t.cycles, t.finished
}

// SubmitBatch schedules every cell of the slice and returns their
// tasks in input order. It is equivalent to calling Submit per cell —
// same tasks, same memo/class/store counters, same determinism
// contract (fault seed, activation snapshot and cycle budget captured
// from the submitter's scope at submission time) — but amortizes the
// per-cell submission cost; see the package comment at the top of this
// file. Never returns nil tasks: a closed engine yields pre-failed
// ErrClosed tasks exactly as Submit does.
func (e *Engine) SubmitBatch(cells []BatchCell) []*Task {
	out := make([]*Task, len(cells))
	pprof.Do(context.Background(), pprof.Labels("engine", "submit-batch"), func(context.Context) {
		e.submitBatch(cells, out)
	})
	return out
}

func (e *Engine) submitBatch(cells []BatchCell, out []*Task) {
	e.batchedCells.Add(uint64(len(cells)))
	cz := e.canonicalizer()
	sl := e.secondLevel()
	bsl, _ := sl.(BatchSecondLevel)
	links, _ := sl.(LinkRecorder)
	blinks, _ := sl.(BatchLinkRecorder)
	// Folds are accumulated and flushed once after the loop: links are
	// duplicate-tolerant hints, so deferring them is unobservable, and a
	// cold full-grid sweep records one per aliased cell.
	var folds []LinkPair
	gid := gls.ID()
	parent := simscope.CurrentG(gid)

	// leaders are the first sights of their class this engine has not
	// resolved yet: they go through the second level, and the misses
	// simulate. All the batch's tasks come out of one slab — a full-grid
	// batch otherwise pays len(cells) individual allocations.
	var leaders []*Task
	slab := make([]Task, len(cells))
	// inBatch tracks the class leaders created by THIS call. They are
	// provably unscheduled until enqueueBatch at the bottom (no scope, in
	// no queue), so their followers can share the leader's done channel —
	// no per-follower channel allocation, no snapshot lock — and finish()
	// is guaranteed to copy their values before its single close.
	var inBatch map[Key]*Task
	if e.dedup && cz != nil {
		// Sized to the expected class count of a highly-deduped grid
		// (~1 class per 32 cells): growing a map to thousands of
		// entries from zero costs several rehashes of string keys.
		inBatch = make(map[Key]*Task, 16+len(cells)/32)
	}
	for i, c := range cells {
		if v, ok := e.cache.Load(c.Key); ok {
			e.hits.Add(1)
			out[i] = v.(*Task)
			continue
		}
		if e.closed.Load() {
			out[i] = e.closedTask("cell " + c.Key.String())
			continue
		}
		ckey := c.Key
		if cz != nil {
			ckey = cz(c.Key)
		}
		if e.dedup && cz != nil {
			if lead, ok := inBatch[ckey]; ok {
				// Batch-local fold: the leader cannot finish before
				// enqueueBatch, so the follower shares its done channel.
				t := &slab[i]
				t.eng, t.key, t.keyed, t.done = e, ckey, true, lead.done
				if old, loaded := e.cache.LoadOrStore(c.Key, t); loaded {
					e.hits.Add(1)
					out[i] = old.(*Task)
					continue
				}
				e.misses.Add(1)
				e.classHits.Add(1)
				if links != nil && ckey != c.Key {
					folds = append(folds, LinkPair{Display: c.Key, Canonical: ckey})
				}
				lead.follow(t)
				out[i] = t
				continue
			}
			if v, ok := e.classes.Load(ckey); ok {
				ct := v.(*Task)
				if val, err, cyc, fin := ct.snapshot(); fin {
					// Inline fan-out: the class already finished, so the
					// display key's task is born complete — value copied
					// here, done channel shared and pre-closed, no
					// follower registration, no wakeup.
					t := &slab[i]
					t.eng, t.key, t.keyed = e, ckey, true
					t.val, t.err, t.cycles, t.finished, t.done = val, err, cyc, true, closedChan
					if old, loaded := e.cache.LoadOrStore(c.Key, t); loaded {
						e.hits.Add(1)
						out[i] = old.(*Task)
						continue
					}
					e.misses.Add(1)
					e.classHits.Add(1)
					e.inlineFanouts.Add(1)
					if links != nil && ckey != c.Key {
						folds = append(folds, LinkPair{Display: c.Key, Canonical: ckey})
					}
					out[i] = t
					continue
				}
				// Class scheduled by an earlier submission and still
				// running: a conventional follower, as Submit would create.
				t := &slab[i]
				t.eng, t.key, t.keyed, t.done = e, ckey, true, make(chan struct{})
				if old, loaded := e.cache.LoadOrStore(c.Key, t); loaded {
					e.hits.Add(1)
					out[i] = old.(*Task)
					continue
				}
				e.misses.Add(1)
				e.classHits.Add(1)
				if links != nil && ckey != c.Key {
					folds = append(folds, LinkPair{Display: c.Key, Canonical: ckey})
				}
				ct.follow(t)
				out[i] = t
				continue
			}
		}
		// First sight of the class (or dedup off): candidate leader. The
		// scope is allocated later, only if the cell survives the store
		// lookup and actually needs simulating.
		t := &slab[i]
		t.eng, t.key, t.keyed, t.fn, t.done = e, ckey, true, c.Fn, make(chan struct{})
		if old, loaded := e.cache.LoadOrStore(c.Key, t); loaded {
			e.hits.Add(1)
			out[i] = old.(*Task)
			continue
		}
		e.misses.Add(1)
		if e.dedup && cz != nil {
			if v, loaded := e.classes.LoadOrStore(ckey, t); loaded {
				// Raced with a concurrent submitter of the same class.
				e.classHits.Add(1)
				if links != nil && ckey != c.Key {
					folds = append(folds, LinkPair{Display: c.Key, Canonical: ckey})
				}
				v.(*Task).follow(t)
				out[i] = t
				continue
			}
			inBatch[ckey] = t
		}
		if links != nil && ckey != c.Key {
			folds = append(folds, LinkPair{Display: c.Key, Canonical: ckey})
		}
		out[i] = t
		leaders = append(leaders, t)
	}

	if len(folds) > 0 {
		if blinks != nil {
			blinks.PutLinkBatch(folds)
		} else {
			for _, p := range folds {
				links.PutLink(p.Display, p.Canonical)
			}
		}
	}

	// Batched second-level replay for the class leaders. A hit completes
	// the task in place, exactly as Submit's inline store hit does; the
	// publication via cache/classes LoadOrStore above ordered the task's
	// fields, and finish() publishes the result to any follower that
	// attached meanwhile.
	if len(leaders) > 0 && sl != nil {
		keys := make([]Key, len(leaders))
		for i, t := range leaders {
			keys[i] = t.key
		}
		var got []BatchGet
		if bsl != nil {
			got = bsl.GetBatch(keys)
		} else {
			got = make([]BatchGet, len(keys))
			for i, k := range keys {
				v, cyc, ok := sl.Get(k)
				got[i] = BatchGet{Val: v, Cycles: cyc, OK: ok}
			}
		}
		live := leaders[:0]
		for i, t := range leaders {
			if i < len(got) && got[i].OK {
				e.slHits.Add(1)
				t.val, t.cycles = got[i].Val, got[i].Cycles
				t.finish()
				continue
			}
			live = append(live, t)
		}
		leaders = live
	}

	// The survivors simulate: allocate their determinism scopes (fault
	// seed = canonical key hash, activation/budget from the submitter's
	// scope — identical to Submit) and enqueue them as one planner unit.
	for _, t := range leaders {
		sc := &simscope.Scope{FaultSeed: t.key.Hash(), Options: e.opts}
		if parent != nil {
			sc.Fault = parent.Fault
			sc.Budget, sc.HasBudget = parent.Budget, parent.HasBudget
			sc.Tag = parent.Tag
		} else {
			sc.Fault = faultinject.Snapshot()
			sc.Budget, sc.HasBudget = cpu.DefaultCycleBudget(), true
		}
		t.scope = sc
	}
	e.enqueueBatch(leaders, gid)
}

// BatchGo is one unkeyed task of a GoBatch call.
type BatchGo struct {
	Label string
	Fn    func() (any, error)
}

// GoBatch schedules a slice of unkeyed tasks — all under the
// submitter's current scope, exactly as Go — with one queue lock
// acquisition and one wakeup instead of per-task rounds. The harness
// uses it to enqueue a whole supervised batch's experiments at once.
func (e *Engine) GoBatch(items []BatchGo) []*Task {
	out := make([]*Task, len(items))
	if e.closed.Load() {
		for i := range items {
			out[i] = e.closedTask(items[i].Label)
		}
		return out
	}
	gid := gls.ID()
	sc := simscope.CurrentG(gid)
	for i, it := range items {
		out[i] = &Task{eng: e, label: it.Label, fn: it.Fn, scope: sc, done: make(chan struct{})}
	}
	e.enqueueBatch(out, gid)
	return out
}

// pushAll appends a slice of tasks under one lock acquisition.
func (s *shard) pushAll(ts []*Task) {
	s.mu.Lock()
	s.tasks = append(s.tasks, ts...)
	s.mu.Unlock()
}

// enqueueBatch is enqueue for a slice: tasks land in their queues under
// one lock acquisition per destination, then one publication bump and
// one broadcast wake the pool. The same closed-engine re-check as
// enqueue closes the Close race.
func (e *Engine) enqueueBatch(ts []*Task, gid uint64) {
	if len(ts) == 0 {
		return
	}
	e.startOnce.Do(e.start)
	direct := ts
	if e.plan != nil {
		var planned []*Task
		direct = nil
		for _, t := range ts {
			if t.keyed {
				planned = append(planned, t)
			} else {
				direct = append(direct, t)
			}
		}
		if len(planned) > 0 {
			e.plan.addBatch(planned)
		}
	}
	if len(direct) > 0 {
		if w, ok := e.workerOf.Load(gid); ok {
			e.shards[w.(int)].pushAll(direct)
		} else {
			e.global.pushAll(direct)
		}
	}
	e.pushSeq.Add(1)
	if e.sleepers.Load() > 0 {
		e.idleMu.Lock()
		e.cond.Broadcast()
		e.idleMu.Unlock()
	}
	if e.closed.Load() {
		e.failPending()
	}
}
