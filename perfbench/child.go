package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"os"
	"strconv"
	"time"

	"spectrebench/internal/checkpoint"
	"spectrebench/internal/engine"
	"spectrebench/internal/gls"
	"spectrebench/internal/grid"
	"spectrebench/internal/harness"
	"spectrebench/internal/store"
)

// childOut is what one fresh measurement process reports to the
// orchestrator on its standard output.
type childOut struct {
	// Ops and Failed count the operations whose output was checked and
	// those that failed their check.
	Ops    int `json:"ops"`
	Failed int `json:"failed"`
	// Problems lists failed checks in words.
	Problems []string `json:"problems,omitempty"`
	// Digest fingerprints the program's output; it must repeat.
	Digest string `json:"digest"`
	// Setup is the workload's set-up time when the child measures it
	// itself (serve); other workloads time set-up from the parent.
	Setup float64 `json:"setup_s,omitempty"`
	Wall  float64 `json:"wall_s"`
	CPU   float64 `json:"cpu_s"`
	RSSMB float64 `json:"rss_mb"`
	// Exact holds counts that must repeat exactly across runs.
	Exact map[string]float64 `json:"exact"`
	// Layers holds per-layer times, ratios and counts.
	Layers map[string]float64 `json:"layers"`
	// Spans holds the top-level spans of the timed region; with Wall
	// they give the unaccounted remainder.
	Spans map[string]float64 `json:"spans"`
	// Lat holds per-request latencies (ms) by endpoint.
	Lat map[string][]float64 `json:"lat,omitempty"`

	// setups and scale are the orchestrator's: the repetition's set-up
	// times and the factor that brings its times to the reference host
	// speed.
	setups []float64
	scale  float64
}

func newChildOut() *childOut {
	return &childOut{Exact: map[string]float64{}, Layers: map[string]float64{}, Spans: map[string]float64{}}
}

func (o *childOut) fail(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

// timed runs fn as a top-level span of the timed region.
func (o *childOut) timed(name string, fn func()) {
	start := time.Now()
	fn()
	o.Spans[name] += time.Since(start).Seconds()
}

// childMain runs one measurement in this fresh process and prints its
// childOut as JSON. Every measurement gets its own process because the
// engine memo, the checkpoint registry and the CPU core pool are
// process-global: a second run in the same process would replay them.
func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	dir := fs.String("dir", "", "store directory")
	traced := fs.Bool("trace", false, "add per-layer timers")
	seed := fs.Int64("seed", 1, "request-sequence seed (serve)")
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -child needs a mode")
		return 2
	}
	mode := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	// One engine worker: at two, wall time spreads several times wider
	// while the output stays the same.
	engine.SetDefaultJobs(1)

	var out *childOut
	var err error
	switch mode {
	case "ready":
		out = ready()
	case "reproduce":
		out = reproduce()
	case "sweep":
		out, err = sweep(*dir, *traced)
	case "serve":
		out, err = serveClient(*dir, *seed, *traced)
	case "daemon":
		err = daemon(*dir, *traced)
	default:
		err = fmt.Errorf("unknown mode %q", mode)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", mode, err)
		return 1
	}
	if out != nil {
		if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", mode, err)
			return 1
		}
	}
	return 0
}

// ready brings the program to the point where reproduce starts: every
// package initialised, the experiment registry built, the engine
// constructed. The parent times this process from start to exit.
func ready() *childOut {
	harness.All()
	engine.Default()
	return newChildOut()
}

// cliRunConfig is what `spectrebench run all` passes with default flags.
var cliRunConfig = harness.RunConfig{
	Seed:        1,
	Retries:     harness.DefaultRetries,
	CycleBudget: harness.DefaultCycleBudget,
}

// reproduce supervises and renders every registry experiment, as
// `spectrebench -jobs 1 run all` does, without a store.
func reproduce() *childOut {
	out := newChildOut()
	exps := harness.All()
	h := sha256.New()

	u0 := sampleUsage()
	var results []harness.Result
	out.timed("harness.supervise_s", func() { results = harness.SuperviseAll(exps, cliRunConfig) })
	out.timed("harness.render_s", func() { io.WriteString(h, harness.RenderResults(results, false, nil)) })
	u1 := sampleUsage()

	out.Wall = u1.at.Sub(u0.at).Seconds()
	out.CPU = u1.cpu - u0.cpu
	out.RSSMB = u1.maxRSSMB
	out.Digest = digestOf(h)
	out.Ops = len(results)
	var cycles, retries uint64
	for _, r := range results {
		if r.Status != harness.StatusOK {
			out.Failed++
			out.fail("%s: %s", r.ID, r.Status)
		}
		cycles += r.Cycles
		retries += uint64(r.Retries)
	}
	d := engine.Default().StatsDetail()
	engineCounts(d, out.Exact)
	out.Exact["sim.cycles"] = float64(cycles)
	out.Exact["harness.retries"] = float64(retries)
	hits, misses := checkpoint.Stats()
	out.Layers["checkpoint.hits"] = float64(hits)
	out.Layers["checkpoint.misses"] = float64(misses)
	out.Layers["sim.ns_per_cycle"] = out.Spans["harness.supervise_s"] * 1e9 / float64(cycles)
	runtimeLayers(u0, u1, out.Layers)
	return out
}

// engineCounts copies every engine.StatsDetail counter.
func engineCounts(d engine.StatsDetail, m map[string]float64) {
	m["engine.cells"] = float64(d.Hits + d.Misses)
	m["engine.memo_hits"] = float64(d.Hits)
	m["engine.class_hits"] = float64(d.ClassHits)
	m["engine.store_hits"] = float64(d.SecondLevelHits)
	m["engine.simulated"] = float64(d.Simulated)
	m["engine.inline_fanouts"] = float64(d.InlineFanouts)
	m["engine.classes"] = float64(d.Classes)
	m["engine.batched_cells"] = float64(d.BatchedCells)
}

// sweep runs the full 172 032-cell grid sweep against the store in dir,
// on the same path as `spectrebench -jobs 1 -cells 172032 -store DIR
// gridbench`, writing its output into a digest instead of stdout. Into
// an empty dir it is the cold sweep that sweep-warm's set-up makes;
// into a filled one it is the warm replay that sweep-warm times.
func sweep(dir string, traced bool) (*childOut, error) {
	out := newChildOut()
	var runs span
	var ts *timedStore
	h := sha256.New()

	u0 := sampleUsage()
	var st *store.Store
	var err error
	out.timed("store.open_s", func() { st, err = store.Open(dir, store.Options{}) })
	if err != nil {
		return nil, err
	}
	var cells []grid.Cell
	out.timed("grid.enumerate_s", func() { cells = grid.Cells(grid.MaxCells(), 0) })
	eng := engine.Default()
	out.timed("grid.canon_s", func() {
		eng.SetCanonicalizer(grid.Canonicalizer(cells))
		if traced {
			ts = &timedStore{Store: st}
			eng.SetSecondLevel(ts)
		} else {
			eng.SetSecondLevel(st)
		}
	})
	var tasks []*engine.Task
	out.timed("engine.submit_s", func() {
		bcells := make([]engine.BatchCell, len(cells))
		for i, c := range cells {
			fn := c.Run
			if traced {
				fn = func() (any, error) {
					defer runs.add(time.Now())
					return c.Run()
				}
			}
			bcells[i] = engine.BatchCell{Key: c.Display, Fn: fn}
		}
		tasks = eng.SubmitBatch(bcells)
	})
	bw := bufio.NewWriterSize(h, 1<<16)
	failed := 0
	out.timed("engine.drain_s", func() { failed = drain(bw, cells, tasks) })
	var classes int
	out.timed("grid.classes_s", func() { classes = grid.Classes(cells) })
	fmt.Fprintf(bw, "grid: %d cells, %d classes, %d failed\n", len(cells), classes, failed)
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	stats := st.Stats()
	out.timed("store.close_s", func() { err = st.Close() })
	if err != nil {
		return nil, err
	}
	u1 := sampleUsage()

	out.Wall = u1.at.Sub(u0.at).Seconds()
	out.CPU = u1.cpu - u0.cpu
	out.RSSMB = u1.maxRSSMB
	out.Digest = digestOf(h)
	out.Ops = 1
	if len(cells) != 172032 || classes != 4968 || failed != 0 {
		out.Failed = 1
		out.fail("trailer reads %d cells, %d classes, %d failed; want 172032 cells, 4968 classes, 0 failed",
			len(cells), classes, failed)
	}
	d := eng.StatsDetail()
	engineCounts(d, out.Exact)
	out.Exact["grid.classes"] = float64(classes)
	out.Exact["store.puts"] = float64(stats.Puts)
	out.Exact["store.get_batches"] = float64(stats.GetBatches)
	out.Layers["engine.dedup_ratio"] = float64(len(cells)) / float64(d.Classes)
	if n := stats.Hits + stats.Misses; n > 0 {
		out.Layers["store.hit_ratio"] = float64(stats.Hits) / float64(n)
	}
	out.Layers["cell.runs"] = runs.count()
	out.Layers["cell.run_s"] = runs.seconds()
	ts.layers(out.Layers)
	runtimeLayers(u0, u1, out.Layers)
	return out, nil
}

// drain writes one line per cell in submission order, as gridbench
// does, and returns how many cells failed.
func drain(bw *bufio.Writer, cells []grid.Cell, tasks []*engine.Task) int {
	failed := 0
	gid := gls.ID()
	line := make([]byte, 0, 128)
	for i, t := range tasks {
		c := cells[i]
		v, err := t.WaitG(gid)
		if err != nil {
			failed++
			fmt.Fprintf(bw, "%s %s error: %v\n", c.Display.Uarch, c.Display.Config, err)
			continue
		}
		line = append(line[:0], c.Display.Uarch...)
		line = append(line, ' ')
		line = append(line, c.Display.Config...)
		line = append(line, " = "...)
		line = strconv.AppendFloat(line, v.(float64), 'f', 2, 64)
		line = append(line, " cyc\n"...)
		bw.Write(line)
	}
	return failed
}

// digestOf fingerprints a byte stream.
func digestOf(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }
