package harness

import (
	"fmt"
	"runtime"
	"testing"

	"spectrebench/internal/checkpoint"
	"spectrebench/internal/engine"
	"spectrebench/internal/simscope"
)

// lookupAll resolves experiment IDs, failing the test on a bad ID.
func lookupAll(t *testing.T, ids []string) []Experiment {
	t.Helper()
	exps := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		exps = append(exps, e)
	}
	return exps
}

// renderBatch supervises the experiments on a throwaway engine with the
// given worker count and returns the full rendered output (tables,
// summary, cache note) — the exact bytes the CLI would print.
func renderBatch(t *testing.T, exps []Experiment, jobs int, faults bool) string {
	t.Helper()
	eng := engine.New(jobs)
	defer eng.Close()
	cfg := RunConfig{Seed: 7, Faults: faults, Retries: DefaultRetries, Engine: eng}
	return RenderResults(SuperviseAll(exps, cfg), false, eng)
}

// TestParallelDeterminism is the PR's headline guarantee: the rendered
// output of a supervised batch — including per-experiment cycle counts
// and the cache hit/miss note — is byte-identical for any -jobs value.
// The subset includes the cell-sharing cliques (fig3 + whatif-v1hw on
// "octane/suite", fig2 + lebench-detail on "lebench/run") where
// scheduling-order bugs would surface first. vm-lfs is left out to keep
// the race-detector run bounded.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-jobs batch runs are slow")
	}
	exps := lookupAll(t, []string{
		"table3", "table5", "fig3", "whatif-v1hw", "lebench-detail", "smt-cost",
	})
	jobsLadder := []int{4, runtime.GOMAXPROCS(0)}

	want := renderBatch(t, exps, 1, false)
	for _, jobs := range jobsLadder {
		if got := renderBatch(t, exps, jobs, false); got != want {
			t.Errorf("jobs=%d output differs from jobs=1\n--- jobs=1 ---\n%s\n--- jobs=%d ---\n%s", jobs, want, jobs, got)
		}
	}
}

// TestParallelDeterminismWithFaults repeats the byte-identity check
// under deterministic fault injection (seed 7): per-cell injector
// streams derive from the cell key and the attempt scope, never from
// global creation order, so injected weather must not depend on worker
// count either.
func TestParallelDeterminismWithFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-jobs batch runs are slow")
	}
	exps := lookupAll(t, []string{"table3", "table9", "fig5"})

	want := renderBatch(t, exps, 1, true)
	for _, jobs := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := renderBatch(t, exps, jobs, true); got != want {
			t.Errorf("faulted jobs=%d output differs from jobs=1\n--- jobs=1 ---\n%s\n--- jobs=%d ---\n%s", jobs, want, jobs, got)
		}
	}
}

// oracleLeg is one run of the oracle matrix: a worker count and the
// accelerators turned off. cold legs start from an empty checkpoint
// registry; since the registry is process-wide they run one at a time,
// while every other leg runs in parallel against a warm registry.
type oracleLeg struct {
	jobs int
	opts simscope.Options
	cold bool
}

func (l oracleLeg) String() string {
	name := fmt.Sprintf("jobs=%d", l.jobs)
	for _, f := range []struct {
		flag string
		off  bool
	}{
		{"checkpoint", l.opts.NoCheckpoint},
		{"superblock", l.opts.NoSuperblock},
		{"corepool", l.opts.NoCorePool},
		{"memfast", l.opts.NoMemFast},
	} {
		if f.off {
			name += "/" + f.flag + "=off"
		}
	}
	if l.cold {
		name += "/cold"
	}
	return name
}

// oracleMatrix names one slice of the oracle table: the accelerators a
// test turns off leg by leg.
type oracleMatrix int

const (
	checkpointMatrix oracleMatrix = iota // jobs × checkpoint × superblock
	corePoolMatrix                       // jobs × corepool
	memFastMatrix                        // jobs × memfast
)

// oracleLegs returns the legs of matrix m, leaving out the reference
// (one worker, every accelerator on): jobs {1,4} × checkpoint ×
// superblock, each from a cold registry when checkpointing is on; jobs
// {1,4,8} × corepool; and jobs {1,4} × memfast. A leg an earlier matrix
// already runs is left out of the later ones, so across the three
// matrices every leg runs once.
func oracleLegs(m oracleMatrix) []oracleLeg {
	var legs [3][]oracleLeg
	seen := map[oracleLeg]bool{{jobs: 1}: true} // the reference itself
	add := func(m oracleMatrix, l oracleLeg) {
		if k := (oracleLeg{jobs: l.jobs, opts: l.opts}); !seen[k] {
			seen[k] = true
			legs[m] = append(legs[m], l)
		}
	}
	for _, jobs := range []int{1, 4} {
		for _, cpOff := range []bool{false, true} {
			for _, sbOff := range []bool{false, true} {
				add(checkpointMatrix, oracleLeg{jobs: jobs, opts: simscope.Options{NoCheckpoint: cpOff, NoSuperblock: sbOff}, cold: !cpOff})
			}
		}
	}
	for _, jobs := range []int{1, 4, 8} {
		for _, off := range []bool{false, true} {
			add(corePoolMatrix, oracleLeg{jobs: jobs, opts: simscope.Options{NoCorePool: off}})
		}
	}
	for _, jobs := range []int{1, 4} {
		for _, off := range []bool{false, true} {
			add(memFastMatrix, oracleLeg{jobs: jobs, opts: simscope.Options{NoMemFast: off}})
		}
	}
	return legs[m]
}

// superviseLeg supervises exps once on a throwaway engine configured by
// leg and renders the results as text and as CSV. It uses
// SuperviseEach, which installs no process-global state, so legs can
// run side by side.
func superviseLeg(exps []Experiment, leg oracleLeg, faults bool) (text, csv string) {
	eng := engine.NewWithOptions(leg.jobs, leg.opts)
	defer eng.Close()
	cfg := RunConfig{Seed: 7, Faults: faults, Retries: DefaultRetries, Engine: eng}
	res := SuperviseEach(exps, cfg, nil)
	return RenderResults(res, false, eng), RenderResults(res, true, eng)
}

// runOracleMatrix checks that rendered output and CSV records are
// byte-identical between the reference (one worker, every host-side
// accelerator on) and every leg of matrix m, with and without fault
// injection — including every fault-injection draw, which is why the
// faults=true arm exists.
func runOracleMatrix(t *testing.T, m oracleMatrix) {
	if testing.Short() {
		t.Skip("ablation matrix batch runs are slow")
	}
	exps := lookupAll(t, []string{"table3", "fig3", "whatif-v1hw", "lebench-detail"})
	defer checkpoint.Clear()

	for _, faults := range []bool{false, true} {
		t.Run(fmt.Sprintf("faults=%v", faults), func(t *testing.T) {
			checkpoint.Clear() // the reference starts from a cold registry
			want, wantCSV := superviseLeg(exps, oracleLeg{jobs: 1}, faults)
			check := func(t *testing.T, leg oracleLeg) {
				got, gotCSV := superviseLeg(exps, leg, faults)
				if got != want {
					t.Errorf("output differs from the reference\n--- want ---\n%s\n--- got ---\n%s", want, got)
				}
				if gotCSV != wantCSV {
					t.Errorf("CSV differs from the reference\n--- want ---\n%s\n--- got ---\n%s", wantCSV, gotCSV)
				}
			}
			var warm []oracleLeg
			for _, leg := range oracleLegs(m) {
				if !leg.cold {
					warm = append(warm, leg)
					continue
				}
				t.Run(leg.String(), func(t *testing.T) {
					checkpoint.Clear()
					check(t, leg)
				})
			}
			t.Run("warm", func(t *testing.T) {
				for _, leg := range warm {
					t.Run(leg.String(), func(t *testing.T) {
						t.Parallel()
						check(t, leg)
					})
				}
			})
		})
	}
}

// TestCheckpointMatrixDeterminism: a cell forked from a checkpointed
// image (shared stub programs, COW page-table templates, reused JIT
// compiles) or run without chained superblocks must be
// indistinguishable from a cell simulated cold, at any worker count.
// It also runs the jobs=4 leg with every accelerator on.
func TestCheckpointMatrixDeterminism(t *testing.T) {
	runOracleMatrix(t, checkpointMatrix)
}

// TestAblationMatrixDeterminism: core reuse (reinit instead of
// reconstruct) and the sharded scheduler must both be invisible in the
// output, at jobs 1, 4 and 8.
func TestAblationMatrixDeterminism(t *testing.T) {
	runOracleMatrix(t, corePoolMatrix)
}

// TestMemFastMatrixDeterminism: epoch-stamped flushes, MRU way hints,
// and the translation/page caches are host-side accelerators and must
// be invisible in the output.
func TestMemFastMatrixDeterminism(t *testing.T) {
	runOracleMatrix(t, memFastMatrix)
}

// TestCellCacheDedupesSharedCells pins the cache's reason to exist:
// whatif-v1hw's unfused arm is fig3's fully hardened rung, so running
// both in one batch serves at least one cell from cache.
func TestCellCacheDedupesSharedCells(t *testing.T) {
	if testing.Short() {
		t.Skip("batch run is slow")
	}
	eng := engine.New(1)
	defer eng.Close()
	cfg := RunConfig{Retries: DefaultRetries, Engine: eng}
	res := SuperviseAll(lookupAll(t, []string{"fig3", "whatif-v1hw"}), cfg)
	for _, r := range res {
		if r.Status != StatusOK {
			t.Fatalf("%s: %s: %v", r.ID, r.Status, r.Err)
		}
	}
	hits, misses := eng.Stats()
	if hits == 0 {
		t.Errorf("no cache hits across fig3 + whatif-v1hw (misses=%d); the shared octane/suite cells did not dedupe", misses)
	}
}
