// Package engine runs simulation cells — independent units of simulated
// work — across a bounded pool of workers while keeping every observable
// result byte-identical to a serial run.
//
// # Cells and keys
//
// A cell is one (workload, uarch model, mitigation config, seed) tuple.
// Cells are pure: a cell's value, error and simulated-cycle cost are a
// function of its key alone. That purity is what makes the two engine
// features sound:
//
//   - Memoization. Submit deduplicates by key, so a cell shared by
//     several experiments (the OS-ladder sweeps of fig2/fig3/table9,
//     the LEBench runs shared by fig2 and lebench-detail) simulates
//     exactly once per process. The first Submit of a key counts as a
//     miss, every later one as a hit — totals that depend only on the
//     submitted key multiset, never on scheduling.
//   - Parallelism. Cells have no ordering constraints between them, so
//     any worker may run any ready cell; callers gather results in
//     canonical order via Task.Wait.
//
// The cache is keyed by the Key struct itself (sync.Map equality), not
// by its hash — a hash collision therefore cannot alias two cells. The
// hash only seeds the cell's deterministic fault-injection stream.
//
// # Canonical keys and dedup classes
//
// Many distinct configurations lower to identical effective behaviour
// (a boot parameter requesting an unsupported mitigation is ignored;
// mitigations=off collapses nearly everything). An installed
// Canonicalizer maps each submitted (display) key to the canonical key
// of its equivalence class. Cells in one class share a single
// execution: the first display key to reach a class schedules the class
// task; later display keys of the same class become followers that
// receive the class result when it completes. Hit/miss totals stay
// display-keyed (a display key's first sight is a miss even when it
// folds onto an existing class), so rendered cache notes are identical
// whether dedup is on or off; ClassHits counts the folds. When a
// canonicalizer is installed the cell's fault seed and second-level
// store key are the canonical key in BOTH dedup modes, so output and
// persisted state are byte-identical across the dedup ablation.
//
// # Scheduling
//
// The pool is a sharded work-stealing design built so that no two
// workers contend on a lock unless one is actually stealing from the
// other:
//
//   - The memo cache is a sync.Map consulted lock-free on the Submit
//     fast path; a racing first submission is resolved by LoadOrStore,
//     so exactly one task per key is ever scheduled and the hit/miss
//     totals stay scheduling-independent.
//   - Each worker owns a deque under its own mutex (LIFO for the owner,
//     to keep an experiment's freshly spawned cells hot; FIFO for
//     thieves, to steal the oldest and largest pending work), plus a
//     global injection queue — its own shard — for submissions from
//     non-worker goroutines. Submission, dequeue and memo lookup never
//     serialize on a pool-wide lock.
//   - With the sweep planner on (the default; see Options.NoPlan),
//     keyed cells are not pushed to deques at all but topologically
//     bucketed by their warmup prefix — (workload, uarch), the part of
//     the key that decides which checkpoint snapshots, pooled cores and
//     assembled programs a cell can reuse. Each worker claims one
//     bucket and drains it before claiming the next, so cells sharing a
//     prefix run back-to-back and PR 7's checkpointed warmup stays hot
//     even on million-cell grids. Helping waits may steal from any
//     bucket (claimed or not), so the liveness argument below is
//     unchanged; cell purity makes the output byte-identical across
//     plan on/off.
//   - Idle workers park on a condition variable. Publication uses a
//     store-buffer-proof handshake: a parking worker registers as a
//     sleeper and then re-checks the push sequence counter; a submitter
//     bumps the counter after the task is visible and then checks for
//     sleepers. Whichever order the two interleave in, one side sees
//     the other, so a wakeup cannot be lost while the signal itself
//     stays off the submission fast path.
//
// Workers resolve their goroutine ID once at startup and thread it
// through scope entry and helping joins (simscope.EnterG/CurrentG), so
// the scheduler's hot paths never pay the runtime.Stack parse behind
// gls.ID.
//
// Tasks may wait on other tasks (an experiment waits on its cells; a
// sweep waits on per-model tasks). A worker that blocks in Wait instead
// helps: it runs other pending tasks until the awaited task completes or
// no runnable work remains. Because waits only ever point from
// experiments toward cells (a DAG) and a helping worker can reach every
// queue, the pool cannot deadlock even at -jobs 1.
//
// # Determinism
//
// Each keyed task runs under its own simscope.Scope whose fault seed is
// the key hash and whose activation snapshot and cycle budget were
// captured at Submit time. Injector streams, fired-fault attribution and
// cycle accounting are therefore functions of the cell key — independent
// of worker count, steal order and submission interleaving.
//
// # Resource recycling
//
// A keyed task's scope is released (simscope.Scope.Release) after the
// task completes and its cycle total has been published. Resource
// layers — the CPU core pool — register reclamation on the scope at
// construction time, so every core a cell builds is recycled exactly
// when the cell can no longer touch it, without the engine knowing what
// a core is.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"spectrebench/internal/cpu"
	"spectrebench/internal/faultinject"
	"spectrebench/internal/gls"
	"spectrebench/internal/simscope"
)

// ErrClosed is returned (via Task.Wait) by tasks submitted to an engine
// that has been closed. A daemon that drains and closes its engine on
// shutdown sees straggler submissions fail with this typed error
// instead of panicking or deadlocking.
var ErrClosed = errors.New("engine: closed")

// SecondLevel is a pluggable second-level cell cache behind the
// in-process memo map — in production, the on-disk content-addressed
// store (internal/store). The engine consults it on every first
// submission of a key and publishes every successfully computed cell
// back to it.
//
// Determinism contract: Get must return exactly what a prior Put stored
// for the key — the cell's value and its simulated-cycle cost — so a
// replayed cell is indistinguishable from a fresh simulation in both
// rendered output and cycle accounting. Implementations must be safe
// for concurrent use by the worker pool and must degrade (miss / drop)
// rather than fail: neither method returns an error.
type SecondLevel interface {
	Get(key Key) (val any, cycles uint64, ok bool)
	Put(key Key, val any, cycles uint64)
}

// Canonicalizer folds a display key down to the canonical key of its
// equivalence class: two keys with the same canonical form are
// guaranteed (by the caller) to denote behaviourally identical cells.
// It must be pure and total — called on the Submit path for every first
// sight of a display key.
type Canonicalizer func(Key) Key

// Key identifies one simulation cell. Two Submits with equal Keys share
// one execution; every field therefore must capture everything the
// cell's result depends on.
type Key struct {
	// Workload names the computation (e.g. "micro/syscall",
	// "lebench/run", "vm/lfs/smallfile").
	Workload string
	// Uarch is the CPU model name.
	Uarch string
	// Config is the canonical encoding of the mitigation configuration
	// (and any other knobs, e.g. the watchdog budget) the cell runs
	// under.
	Config string
	// Seed roots the cell's fault-injection stream (0 when faults are
	// off).
	Seed uint64
}

// Hash folds the key into the 64-bit fault seed for the cell's scope.
// Field boundaries are marked so ("ab","c") and ("a","bc") differ.
func (k Key) Hash() uint64 {
	h := uint64(14695981039346656037)
	step := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		h ^= 0xff
		h *= 1099511628211
	}
	step(k.Workload)
	step(k.Uarch)
	step(k.Config)
	for i := 0; i < 64; i += 8 {
		h ^= (k.Seed >> i) & 0xff
		h *= 1099511628211
	}
	return h
}

func (k Key) String() string {
	return fmt.Sprintf("%s/%s/%s/seed=%d", k.Workload, k.Uarch, k.Config, k.Seed)
}

// PanicError is the structured form a panicking task takes. Its Error
// string is deterministic (no goroutine IDs or addresses), so rendered
// output containing it stays byte-identical across runs; the stack is
// preserved separately for debugging.
type PanicError struct {
	// Label names the task ("cell <key>" or the Go label).
	Label string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at recovery time.
	Stack string
	// FaultPoint names the most recently fired fault-injection point in
	// the task's scope ("" when none fired).
	FaultPoint string
}

func (e *PanicError) Error() string {
	msg := fmt.Sprintf("%s: panic: %v", e.Label, e.Value)
	if e.FaultPoint != "" {
		msg += " [fault-point " + e.FaultPoint + "]"
	}
	return msg
}

// Task is one scheduled unit: a keyed (memoized) cell or an unkeyed
// helper task. Wait may be called any number of times from any
// goroutine.
type Task struct {
	eng   *Engine
	key   Key
	keyed bool
	label string
	fn    func() (any, error)
	// scope is the determinism context the task runs under: a fresh
	// per-cell scope for keyed tasks, the submitter's (shared) scope for
	// unkeyed ones.
	scope *simscope.Scope

	done   chan struct{}
	val    any
	err    error
	cycles uint64 // keyed tasks: simulated cycles attributed to the cell

	// Followers are display-key tasks folded onto this class task; they
	// receive the result when it completes, without a goroutine each.
	fmu       sync.Mutex
	finished  bool
	followers []*Task
}

// finish publishes t's completion: copies the result to every folded
// follower, then closes the done channels. Must be called exactly once,
// and only after val/err/cycles are final. Followers created by a batch
// submission share t's own done channel (they were registered before t
// could finish, so their values are always copied here, before the
// single close); conventional followers have their own channel, closed
// after their copy.
func (t *Task) finish() {
	t.fmu.Lock()
	t.finished = true
	fs := t.followers
	t.followers = nil
	t.fmu.Unlock()
	for _, f := range fs {
		f.val, f.err, f.cycles = t.val, t.err, t.cycles
	}
	close(t.done)
	for _, f := range fs {
		if f.done != t.done {
			close(f.done)
		}
	}
}

// follow registers f to receive t's result; if t already finished the
// result is copied immediately. The close of f.done orders the copies
// before any reader. A follower sharing t's done channel (batch-local
// fold) never reaches the finished branch: it only attaches while t is
// provably unscheduled.
func (t *Task) follow(f *Task) {
	t.fmu.Lock()
	if !t.finished {
		t.followers = append(t.followers, f)
		t.fmu.Unlock()
		return
	}
	t.fmu.Unlock()
	f.val, f.err, f.cycles = t.val, t.err, t.cycles
	if f.done != t.done {
		close(f.done)
	}
}

func (t *Task) describe() string {
	if t.keyed {
		return "cell " + t.key.String()
	}
	return t.label
}

// shard is one lockable task queue: a worker's deque or the global
// injection queue. The owner pushes and pops at the tail; thieves and
// global consumers pop at the head.
type shard struct {
	mu    sync.Mutex
	tasks []*Task
}

func (s *shard) push(t *Task) {
	s.mu.Lock()
	s.tasks = append(s.tasks, t)
	s.mu.Unlock()
}

// popTail removes the newest task (owner side, LIFO).
func (s *shard) popTail() *Task {
	s.mu.Lock()
	n := len(s.tasks)
	if n == 0 {
		s.mu.Unlock()
		return nil
	}
	t := s.tasks[n-1]
	s.tasks[n-1] = nil
	s.tasks = s.tasks[:n-1]
	s.mu.Unlock()
	return t
}

// popHead removes the oldest task (thief/global side, FIFO).
func (s *shard) popHead() *Task {
	s.mu.Lock()
	if len(s.tasks) == 0 {
		s.mu.Unlock()
		return nil
	}
	t := s.tasks[0]
	s.tasks[0] = nil
	s.tasks = s.tasks[1:]
	s.mu.Unlock()
	return t
}

// pbucket is one warmup-prefix bucket of pending keyed tasks. All
// fields are guarded by the owning planner's mutex.
type pbucket struct {
	tasks     []*Task
	queued    bool // in the planner's ready queue
	claimedBy int  // worker index draining this bucket, or -1
}

// pop removes the oldest pending task (submission order).
func (b *pbucket) pop() *Task {
	if len(b.tasks) == 0 {
		return nil
	}
	t := b.tasks[0]
	b.tasks[0] = nil
	b.tasks = b.tasks[1:]
	return t
}

// planner buckets pending cells by shared warmup prefix — (workload,
// uarch), the fields that decide which checkpoints, pooled cores and
// assembled programs a cell can reuse — and hands each worker one
// bucket at a time. A single mutex guards it: operations are O(1)
// appends and pops, and the cells behind them are many orders of
// magnitude heavier.
type planner struct {
	mu      sync.Mutex
	buckets map[string]*pbucket
	order   []*pbucket // creation order, for stealing and draining
	queue   []*pbucket // FIFO of buckets with unclaimed pending work
	claims  []*pbucket // per-worker claimed bucket
}

func newPlanner(jobs int) *planner {
	return &planner{
		buckets: map[string]*pbucket{},
		claims:  make([]*pbucket, jobs),
	}
}

// add enqueues a keyed task into its prefix bucket, making the bucket
// claimable if no worker is already draining it.
func (p *planner) add(t *Task) {
	prefix := t.key.Workload + "\x00" + t.key.Uarch
	p.mu.Lock()
	b := p.buckets[prefix]
	if b == nil {
		b = &pbucket{claimedBy: -1}
		p.buckets[prefix] = b
		p.order = append(p.order, b)
	}
	b.tasks = append(b.tasks, t)
	if !b.queued && b.claimedBy < 0 {
		b.queued = true
		p.queue = append(p.queue, b)
	}
	p.mu.Unlock()
}

// addBatch enqueues a whole slice of keyed tasks under one lock
// acquisition, bucketing each by its prefix exactly as add does. The
// batch submission path uses it so a grid slice becomes one planner
// unit instead of len(ts) lock round-trips.
func (p *planner) addBatch(ts []*Task) {
	p.mu.Lock()
	for _, t := range ts {
		prefix := t.key.Workload + "\x00" + t.key.Uarch
		b := p.buckets[prefix]
		if b == nil {
			b = &pbucket{claimedBy: -1}
			p.buckets[prefix] = b
			p.order = append(p.order, b)
		}
		b.tasks = append(b.tasks, t)
		if !b.queued && b.claimedBy < 0 {
			b.queued = true
			p.queue = append(p.queue, b)
		}
	}
	p.mu.Unlock()
}

// next returns a task for worker w: the next cell of w's claimed bucket
// while it lasts, then the oldest bucket nobody is draining.
func (p *planner) next(w int) *Task {
	p.mu.Lock()
	defer p.mu.Unlock()
	if b := p.claims[w]; b != nil {
		if t := b.pop(); t != nil {
			return t
		}
		// Drained; later adds re-queue the bucket.
		b.claimedBy = -1
		p.claims[w] = nil
	}
	for len(p.queue) > 0 {
		b := p.queue[0]
		p.queue[0] = nil
		p.queue = p.queue[1:]
		b.queued = false
		if len(b.tasks) == 0 || b.claimedBy >= 0 {
			continue
		}
		b.claimedBy = w
		p.claims[w] = b
		return b.pop()
	}
	return nil
}

// steal takes pending work from any bucket, claimed or not — the
// escape hatch that keeps helping waits live: every queued task stays
// reachable from every worker, claimed buckets included.
func (p *planner) steal() *Task {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, b := range p.order {
		if t := b.pop(); t != nil {
			return t
		}
	}
	return nil
}

// drain removes and returns every pending task (the Close path).
func (p *planner) drain() []*Task {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*Task
	for _, b := range p.order {
		for _, t := range b.tasks {
			if t != nil {
				out = append(out, t)
			}
		}
		b.tasks = nil
	}
	return out
}

// Engine is a sharded work-stealing worker pool with a lock-free
// memoizing cell cache.
type Engine struct {
	jobs int

	cache         sync.Map // display Key -> *Task
	classes       sync.Map // canonical Key -> *Task (dedup on + canonicalizer set)
	hits, misses  atomic.Uint64
	classHits     atomic.Uint64 // display first-sights folded onto an existing class
	slHits        atomic.Uint64 // class executions replayed from the second level
	inlineFanouts atomic.Uint64 // class hits resolved inline at submit time (SubmitBatch)
	batchedCells  atomic.Uint64 // cells that entered through SubmitBatch
	dedup         bool          // !opts.NoDedup
	opts          simscope.Options

	// canon is the optional display→canonical key mapping (atomic.Value
	// of canonBox). Install with SetCanonicalizer before the first
	// Submit.
	canon atomic.Value

	shards   []shard  // per-worker deques
	global   shard    // injection queue for non-worker submitters
	plan     *planner // prefix-locality cell buckets, nil when -plan=off
	workerOf sync.Map // goroutine ID -> worker index

	// second is the optional second-level cell cache (atomic.Value of
	// secondLevelBox). Install with SetSecondLevel before the first
	// Submit.
	second atomic.Value

	startOnce sync.Once
	closed    atomic.Bool

	// Parking. sleepers is written only under idleMu but read without it
	// on the submission fast path; pushSeq is bumped after every enqueue.
	// See the package doc for the lost-wakeup argument.
	idleMu   sync.Mutex
	cond     *sync.Cond
	sleepers atomic.Int64
	pushSeq  atomic.Uint64
}

// New returns an engine with n workers (n < 1 means GOMAXPROCS) and
// every host-side accelerator on. Workers start lazily on first
// submission.
func New(n int) *Engine { return NewWithOptions(n, simscope.Options{}) }

// NewWithOptions returns an engine with n workers that runs its cells
// under opts: NoDedup and NoPlan configure the engine itself, and every
// cell scope carries opts to the simulator layers below.
func NewWithOptions(n int, opts simscope.Options) *Engine {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		jobs:   n,
		shards: make([]shard, n),
		dedup:  !opts.NoDedup,
		opts:   opts,
	}
	if !opts.NoPlan {
		e.plan = newPlanner(n)
	}
	e.cond = sync.NewCond(&e.idleMu)
	return e
}

// Jobs returns the worker count.
func (e *Engine) Jobs() int { return e.jobs }

// Options returns the options the engine stamps onto its cell scopes.
// Callers that build their own scopes for work on this engine (the
// harness's attempt scopes, the optimizer's) stamp the same value.
func (e *Engine) Options() simscope.Options { return e.opts }

// secondLevelBox wraps a SecondLevel for atomic.Value (which rejects
// bare interface values of varying dynamic type).
type secondLevelBox struct{ sl SecondLevel }

// SetSecondLevel installs sl as the engine's second-level cell cache.
// Call before the first Submit; cells already resolved through the
// first-level memo are not retroactively published.
func (e *Engine) SetSecondLevel(sl SecondLevel) {
	e.second.Store(secondLevelBox{sl})
}

// secondLevel returns the installed second-level cache, or nil.
func (e *Engine) secondLevel() SecondLevel {
	if v := e.second.Load(); v != nil {
		return v.(secondLevelBox).sl
	}
	return nil
}

// canonBox wraps a Canonicalizer for atomic.Value.
type canonBox struct{ fn Canonicalizer }

// SetCanonicalizer installs fn as the engine's display→canonical key
// mapping. Call before the first Submit; keys already resolved through
// the memo are not re-folded. Installing a canonicalizer switches cell
// fault seeds and second-level keys to the canonical key (in both dedup
// modes, so the dedup ablation cannot change a single output byte).
func (e *Engine) SetCanonicalizer(fn Canonicalizer) {
	e.canon.Store(canonBox{fn})
}

// canonicalizer returns the installed key canonicalizer, or nil.
func (e *Engine) canonicalizer() Canonicalizer {
	if v := e.canon.Load(); v != nil {
		return v.(canonBox).fn
	}
	return nil
}

// DedupEnabled reports whether this engine folds equivalence classes.
func (e *Engine) DedupEnabled() bool { return e.dedup }

// PlanEnabled reports whether this engine buckets cells by warmup
// prefix.
func (e *Engine) PlanEnabled() bool { return e.plan != nil }

// Stats returns the cache hit and miss totals: misses is the number of
// distinct cells simulated, hits the number of Submits served from the
// cache. Both depend only on what was submitted, so they are identical
// across worker counts.
func (e *Engine) Stats() (hits, misses uint64) {
	return e.hits.Load(), e.misses.Load()
}

// StatsDetail breaks the cell cache down by level. All counters are
// functions of the submitted key multiset and the installed
// canonicalizer — identical across worker counts and scheduling.
type StatsDetail struct {
	// Hits / Misses are the display-keyed totals of Stats: repeats vs
	// first sights of a display key.
	Hits, Misses uint64
	// ClassHits counts display first-sights folded onto an already
	// scheduled equivalence class (dedup on + canonicalizer installed).
	ClassHits uint64
	// SecondLevelHits counts class executions replayed from the
	// second-level store instead of simulated.
	SecondLevelHits uint64
	// Classes is the number of distinct class executions scheduled or
	// replayed (Misses - ClassHits).
	Classes uint64
	// Simulated is the number of cells actually executed on the pool
	// (Classes - SecondLevelHits).
	Simulated uint64
	// InlineFanouts counts class hits resolved inline at SubmitBatch
	// time — the display key received a finished class's value during
	// submission instead of taking a task/park/wake round-trip. A subset
	// of ClassHits; scheduling-dependent (how many classes are already
	// finished when their followers are submitted varies with timing),
	// so it is reported on stderr//statsz only, never in output.
	InlineFanouts uint64
	// BatchedCells counts cells that entered through SubmitBatch rather
	// than per-cell Submit.
	BatchedCells uint64
}

// String renders the breakdown as the one-line summary `run all -v`
// and gridbench print to stderr.
func (d StatsDetail) String() string {
	s := fmt.Sprintf("cell cache: %d hits, %d misses; %d class hits, %d store hits, %d of %d classes simulated",
		d.Hits, d.Misses, d.ClassHits, d.SecondLevelHits, d.Simulated, d.Classes)
	if d.BatchedCells > 0 {
		s += fmt.Sprintf("; %d batched cells, %d inline fanouts", d.BatchedCells, d.InlineFanouts)
	}
	return s
}

// StatsDetail returns the full cache breakdown (Stats plus dedup-class
// and second-level counters).
func (e *Engine) StatsDetail() StatsDetail {
	d := StatsDetail{
		Hits:            e.hits.Load(),
		Misses:          e.misses.Load(),
		ClassHits:       e.classHits.Load(),
		SecondLevelHits: e.slHits.Load(),
		InlineFanouts:   e.inlineFanouts.Load(),
		BatchedCells:    e.batchedCells.Load(),
	}
	d.Classes = d.Misses - d.ClassHits
	d.Simulated = d.Classes - d.SecondLevelHits
	return d
}

// Sub returns the counter delta d - prev. Every StatsDetail field is a
// monotone counter (the derived Classes/Simulated are differences of
// monotone counters that never go negative per submission), so callers
// bracket a phase with two StatsDetail() reads and Sub to attribute
// simulate-vs-replay work to that phase — how the optimizer reports
// cells simulated against a shared engine/store without a profiler.
func (d StatsDetail) Sub(prev StatsDetail) StatsDetail {
	return StatsDetail{
		Hits:            d.Hits - prev.Hits,
		Misses:          d.Misses - prev.Misses,
		ClassHits:       d.ClassHits - prev.ClassHits,
		SecondLevelHits: d.SecondLevelHits - prev.SecondLevelHits,
		Classes:         d.Classes - prev.Classes,
		Simulated:       d.Simulated - prev.Simulated,
		InlineFanouts:   d.InlineFanouts - prev.InlineFanouts,
		BatchedCells:    d.BatchedCells - prev.BatchedCells,
	}
}

// Submit schedules the cell identified by key, or returns the existing
// task when the key was already submitted. fn must be pure with respect
// to key. The cell's fault seed, activation snapshot and cycle budget
// are fixed here, at submission time, from the submitter's scope.
func (e *Engine) Submit(key Key, fn func() (any, error)) *Task {
	if v, ok := e.cache.Load(key); ok {
		e.hits.Add(1)
		return v.(*Task)
	}
	if e.closed.Load() {
		return e.closedTask("cell " + key.String())
	}
	gid := gls.ID()
	parent := simscope.CurrentG(gid)
	// With a canonicalizer installed, the cell's identity — fault seed,
	// second-level key, profile labels — is its canonical key in BOTH
	// dedup modes, so folding classes cannot change one output byte.
	ckey := key
	cz := e.canonicalizer()
	if cz != nil {
		ckey = cz(key)
	}
	sc := &simscope.Scope{FaultSeed: ckey.Hash(), Options: e.opts}
	if parent != nil {
		sc.Fault = parent.Fault
		sc.Budget, sc.HasBudget = parent.Budget, parent.HasBudget
		sc.Tag = parent.Tag
	} else {
		// Unmanaged submitter (an experiment invoked directly): capture
		// the globals the scope would otherwise shadow.
		sc.Fault = faultinject.Snapshot()
		sc.Budget, sc.HasBudget = cpu.DefaultCycleBudget(), true
	}
	t := &Task{eng: e, key: ckey, keyed: true, fn: fn, scope: sc, done: make(chan struct{})}
	if v, loaded := e.cache.LoadOrStore(key, t); loaded {
		// Another submitter raced us to the same key; its task is the
		// cell. The scope built above is discarded — it was derived from
		// the canonical key and the same batch-wide activation/budget,
		// so which racer wins is unobservable.
		e.hits.Add(1)
		return v.(*Task)
	}
	// First sight of this display key: always a miss, even when it
	// folds onto an existing class below — the memo statistics stay a
	// function of the submitted key multiset alone.
	e.misses.Add(1)
	if e.dedup && cz != nil {
		if v, loaded := e.classes.LoadOrStore(ckey, t); loaded {
			// The class is already scheduled (or done): this display key
			// becomes a follower of the class task and never runs.
			e.classHits.Add(1)
			v.(*Task).follow(t)
			return t
		}
	}
	// Second-level (store) lookup, keyed canonically. A hit completes
	// the task in place — value and simulated-cycle cost replayed
	// exactly as a fresh run would have produced them — without ever
	// scheduling it. The hit still counts as a first-level miss (see
	// above), so rendered output is byte-identical between cold and
	// warm stores; the store keeps its own hit counters for
	// operational telemetry.
	if sl := e.secondLevel(); sl != nil {
		if val, cycles, ok := sl.Get(ckey); ok {
			e.slHits.Add(1)
			t.val, t.cycles = val, cycles
			t.scope.Release()
			t.finish()
			return t
		}
	}
	e.enqueue(t, gid)
	return t
}

// closedTask returns a pre-completed task carrying ErrClosed.
func (e *Engine) closedTask(label string) *Task {
	t := &Task{eng: e, label: label, err: ErrClosed, done: make(chan struct{})}
	close(t.done)
	return t
}

// Go schedules an unkeyed task (no memoization) that runs under the
// submitter's current scope — the building block for fanning one
// experiment's per-model work across workers while cycle charges and
// fault attribution keep flowing to the experiment.
func (e *Engine) Go(label string, fn func() (any, error)) *Task {
	if e.closed.Load() {
		return e.closedTask(label)
	}
	gid := gls.ID()
	t := &Task{eng: e, label: label, fn: fn, scope: simscope.CurrentG(gid), done: make(chan struct{})}
	e.enqueue(t, gid)
	return t
}

// enqueue places t where its consumer will find it — the planner's
// prefix bucket for keyed cells when planning is on, else the
// submitting worker's own deque (tail = hottest) or the global queue
// for outside submitters — starting the workers on first use and waking
// a parked worker if there is one.
func (e *Engine) enqueue(t *Task, gid uint64) {
	e.startOnce.Do(e.start)
	if e.plan != nil && t.keyed {
		e.plan.add(t)
	} else if w, ok := e.workerOf.Load(gid); ok {
		e.shards[w.(int)].push(t)
	} else {
		e.global.push(t)
	}
	// Publication handshake: the task is visible in its queue before the
	// sequence bump, and the bump happens before the sleeper check.
	e.pushSeq.Add(1)
	if e.sleepers.Load() > 0 {
		e.idleMu.Lock()
		e.cond.Signal()
		e.idleMu.Unlock()
	}
	// A Close that raced this submission may have drained the queues
	// before our push became visible to it; re-checking here closes the
	// window — whichever side runs second sees the other's write and
	// fails the task instead of stranding it.
	if e.closed.Load() {
		e.failPending()
	}
}

func (e *Engine) start() {
	for i := 0; i < e.jobs; i++ {
		go e.worker(i)
	}
}

// dequeue returns a runnable task for worker w: own deque tail first,
// then the worker's claimed prefix bucket (or a fresh claim), then the
// global queue head, the head of any other deque, and finally — the
// liveness escape hatch — a steal from any planner bucket.
func (e *Engine) dequeue(w int) *Task {
	if t := e.shards[w].popTail(); t != nil {
		return t
	}
	if e.plan != nil {
		if t := e.plan.next(w); t != nil {
			return t
		}
	}
	if t := e.global.popHead(); t != nil {
		return t
	}
	for i := 1; i < len(e.shards); i++ {
		if t := e.shards[(w+i)%len(e.shards)].popHead(); t != nil {
			return t
		}
	}
	if e.plan != nil {
		if t := e.plan.steal(); t != nil {
			return t
		}
	}
	return nil
}

func (e *Engine) worker(idx int) {
	id := gls.ID()
	e.workerOf.Store(id, idx)
	for {
		// Sample the push sequence before scanning: a task enqueued
		// after the scan passed its shard bumps the sequence, which the
		// parking check below observes.
		seq := e.pushSeq.Load()
		if t := e.dequeue(idx); t != nil {
			e.run(t, id)
			continue
		}
		if e.closed.Load() {
			e.workerOf.Delete(id)
			return
		}
		e.idleMu.Lock()
		e.sleepers.Add(1)
		if e.pushSeq.Load() == seq && !e.closed.Load() {
			e.cond.Wait()
		}
		e.sleepers.Add(-1)
		e.idleMu.Unlock()
	}
}

// run executes t under its scope (entering nil shadows any scope the
// helping worker happened to be carrying) and publishes the result. gid
// is the calling goroutine's ID, resolved once by the caller. A keyed
// task's scope is released afterwards, returning the cell's pooled
// resources.
func (e *Engine) run(t *Task, gid uint64) {
	restore := simscope.EnterG(gid, t.scope)
	body := func() {
		defer func() {
			if r := recover(); r != nil {
				pe := &PanicError{
					Label: t.describe(),
					Value: r,
					Stack: string(debug.Stack()),
				}
				if p, ok := t.scope.LastFired(); ok {
					pe.FaultPoint = faultinject.Point(p).String()
				}
				t.err = pe
			}
		}()
		t.val, t.err = t.fn()
	}
	if t.keyed {
		// Attribute profile samples to the cell: with many cells
		// interleaving on the worker pool, a flat -cpuprofile can only
		// say "StepBlock is hot"; the labels say which workload on which
		// microarchitecture under which configuration owns the samples
		// (pprof -tagfocus / the sample label view).
		pprof.Do(context.Background(), pprof.Labels(
			"workload", t.key.Workload,
			"uarch", t.key.Uarch,
			"config", t.key.Config,
		), func(context.Context) { body() })
	} else {
		body()
	}
	restore()
	if t.keyed {
		t.cycles = t.scope.Cycles()
	}
	t.finish()
	if t.keyed {
		// The cell owns its scope; unkeyed tasks borrow the submitter's.
		t.scope.Release()
		// Publish the freshly computed cell to the second-level store.
		// Only clean successes are stored: errors, panics and
		// watchdog-stopped cells must re-run next time.
		if t.err == nil && t.val != nil {
			if sl := e.secondLevel(); sl != nil {
				sl.Put(t.key, t.val, t.cycles)
			}
		}
	}
}

// Wait blocks until the task completes and returns its value and error.
// A worker that waits helps: it runs other pending tasks rather than
// idling, which is what keeps -jobs 1 live when an experiment task
// blocks on its own cells. For keyed tasks, the cell's simulated cycles
// are charged to the waiter's current scope on every Wait — each
// requester pays for the cell as if it had simulated it, exactly as the
// serial engine-less code did, and the sum is independent of execution
// order.
func (t *Task) Wait() (any, error) {
	return t.WaitG(gls.ID())
}

// WaitG is Wait for a caller that drains many tasks from one goroutine:
// it takes the caller's gls.ID so the goroutine identity is parsed once
// per drain loop instead of once per task — on a full-grid sweep that
// parse is the single largest per-cell cost. Semantics are identical to
// Wait; gid must be the calling goroutine's own ID.
func (t *Task) WaitG(gid uint64) (any, error) {
	select {
	case <-t.done:
	default:
		if w, ok := t.eng.workerOf.Load(gid); ok {
			t.eng.help(t, w.(int), gid)
		}
		<-t.done
	}
	if t.keyed {
		simscope.CurrentG(gid).AddCycles(t.cycles)
	}
	return t.val, t.err
}

// help runs pending tasks on worker w until t completes or nothing is
// runnable (t is then in flight on some other worker; the caller
// blocks).
func (e *Engine) help(t *Task, w int, gid uint64) {
	for {
		select {
		case <-t.done:
			return
		default:
		}
		nt := e.dequeue(w)
		if nt == nil {
			return
		}
		e.run(nt, gid)
	}
}

// Close shuts the worker pool down: workers exit once their queues are
// empty, and any task still queued (or submitted afterwards) completes
// with ErrClosed instead of being stranded — Wait never deadlocks
// across a Close. Idempotent, so a daemon's shutdown path can call it
// unconditionally. Call after draining for clean results; tasks failed
// by Close report ErrClosed, they are not cancelled mid-run.
func (e *Engine) Close() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	e.idleMu.Lock()
	e.cond.Broadcast()
	e.idleMu.Unlock()
	e.failPending()
}

// failPending drains every queue and completes the drained tasks with
// ErrClosed. Pops are mutually exclusive with the workers', so a task
// is either run once or failed once, never both.
func (e *Engine) failPending() {
	fail := func(t *Task) {
		t.err = ErrClosed
		t.finish()
		if t.keyed {
			t.scope.Release()
		}
	}
	for t := e.global.popHead(); t != nil; t = e.global.popHead() {
		fail(t)
	}
	for i := range e.shards {
		for t := e.shards[i].popHead(); t != nil; t = e.shards[i].popHead() {
			fail(t)
		}
	}
	if e.plan != nil {
		for _, t := range e.plan.drain() {
			fail(t)
		}
	}
}

// The process-default engine, used by any managed run that does not
// carry an explicit engine. Size it with SetDefaultJobs before first
// use.
var (
	defaultMu      sync.Mutex
	defaultEngine  *Engine
	defaultJobs    int
	defaultOptions simscope.Options
)

// SetDefaultJobs fixes the worker count of the process-default engine.
// It must be called before the first Default call (the CLI does so while
// parsing flags); afterwards it has no effect.
func SetDefaultJobs(n int) {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultEngine == nil {
		defaultJobs = n
	}
}

// SetDefaultOptions fixes the options of the process-default engine.
// Like SetDefaultJobs, it must be called before the first Default call
// (the CLI installs the ablation flags this way); afterwards it has no
// effect.
func SetDefaultOptions(o simscope.Options) {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultEngine == nil {
		defaultOptions = o
	}
}

// Default returns the lazily constructed process-default engine.
func Default() *Engine {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultEngine == nil {
		defaultEngine = NewWithOptions(defaultJobs, defaultOptions)
	}
	return defaultEngine
}

// CloseDefault closes the process-default engine if it has been
// constructed. The closed engine stays installed: later Default()
// callers get an engine whose submissions fail with ErrClosed — the
// deterministic daemon-shutdown behaviour — rather than a fresh pool
// resurrecting behind the shutdown path's back. Idempotent.
func CloseDefault() {
	defaultMu.Lock()
	e := defaultEngine
	defaultMu.Unlock()
	if e != nil {
		e.Close()
	}
}
