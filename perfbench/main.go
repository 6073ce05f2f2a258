// Command perfbench is spectrebench's benchmark: one schema for the
// repository's end-to-end and per-layer performance numbers.
//
//	sh perfbench/run.sh --workload reproduce|sweep-warm|serve --seed N --seconds S --trace 0|1
//
// A run repeats its workload in fresh processes for S seconds (at least
// three times) and prints, as the last line of standard output, one
// JSON object: whether every output check passed, how many operations
// were attempted and failed, and the medians of the end-to-end metrics
// (--trace 0) or of the per-layer metrics (--trace 1) as listed in
// BENCHMARK.json. The line before it records the host.
//
// Per-layer numbers come from timers the benchmark puts around its
// calls into each module (harness, engine, grid, store, optimize,
// server) and from the counters those modules export. A traced run
// alternates untraced and traced repetitions: their difference is the
// tracing overhead, and their engine counters must be equal.
//
// The host is a shared VM whose speed drifts by a third or more over
// minutes. The orchestrator therefore times a fixed loop of its own
// before the first repetition and after each one, and reports the
// end-to-end times scaled to a reference speed of that loop (see
// calibrate). The raw times stay in the per-layer metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

var workloads = []string{"reproduce", "sweep-warm", "serve"}

// endToEnd lists the --trace 0 metrics with their units.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cells_per_s", "1/s"},
	{"ok_rate", "ratio"},
}

// perLayer lists the --trace 1 metrics with their units. A workload
// that bypasses a layer reports it as 0.
var perLayer = [][2]string{
	{"harness.supervise_s", "s"}, {"harness.render_s", "s"}, {"harness.retries", "count"},
	{"sim.cycles", "count"}, {"sim.ns_per_cycle", "ns"}, {"sim_mcycles_per_s", "Mcycles/s"},
	{"checkpoint.hits", "count"}, {"checkpoint.misses", "count"},
	{"grid.enumerate_s", "s"}, {"grid.canon_s", "s"}, {"grid.classes_s", "s"}, {"grid.classes", "count"},
	{"engine.submit_s", "s"}, {"engine.drain_s", "s"}, {"engine.cells", "count"},
	{"engine.memo_hits", "count"}, {"engine.class_hits", "count"}, {"engine.store_hits", "count"},
	{"engine.simulated", "count"}, {"engine.inline_fanouts", "count"}, {"engine.dedup_ratio", "ratio"},
	{"store.open_s", "s"}, {"store.get_batch_s", "s"}, {"store.get_batches", "count"},
	{"store.link_batch_s", "s"}, {"store.close_s", "s"}, {"store.hit_ratio", "ratio"},
	{"store.put_s", "s"}, {"store.puts", "count"}, {"cell.run_s", "s"}, {"cell.runs", "count"},
	{"optimize.search_s", "s"}, {"optimize.examined", "count"}, {"optimize.classes", "count"},
	{"optimize.evaluated", "count"}, {"optimize.pruned", "count"},
	{"optimize_p50_ms", "ms"}, {"optimize_p95_ms", "ms"}, {"optimize_samples", "count"},
	{"sweep_p50_ms", "ms"}, {"sweep_p95_ms", "ms"}, {"sweep_samples", "count"}, {"req_per_s", "1/s"},
	{"serve.optimize_s", "s"}, {"serve.sweep_s", "s"},
	{"server.optimize_ttfb_ms", "ms"}, {"server.sweep_ttfb_ms", "ms"}, {"server.overhead_ms", "ms"},
	{"server.accepted", "count"}, {"server.rejected", "count"}, {"server.completed", "count"},
	{"server.timed_out", "count"},
	{"runtime.alloc_mb", "MB"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_cpu_s", "s"},
	{"unaccounted_s", "s"}, {"trace.wall_s", "s"}, {"trace.overhead_s", "s"}, {"host.steal_pct", "%"},
	{"host.calib_s", "s"}, {"host.raw_wall_s", "s"}, {"host.raw_cpu_s", "s"},
}

// childTimeout bounds one measurement process; a run must end within
// 180 seconds.
const childTimeout = 150 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func benchMain(args []string) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "reproduce, sweep-warm or serve")
	seed := fl.Int64("seed", 1, "workload seed (serve's request sequence)")
	seconds := fl.Int("seconds", 10, "measure for this many seconds")
	trace := fl.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloads, *workload) || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --trace 0|1 and --seconds >= 1\n",
			strings.Join(workloads, "|"))
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "perfbench", "work"))
	if err == nil {
		os.RemoveAll(work)
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: work dir: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	b := &bench{exe: exe, work: work, workload: *workload, seed: *seed}
	cpu0 := readCPUStat()
	start := time.Now()
	minReps := 3
	if *trace == 1 {
		minReps = 4
	}
	// Repeat while another repetition, as long as the slowest so far,
	// still fits in the measuring time.
	budget := time.Duration(*seconds) * time.Second
	var slowest time.Duration
	b.calib = append(b.calib, calibrate())
	for i := 0; i < minReps || time.Since(start)+slowest <= budget; i++ {
		t := time.Now()
		if err := b.rep(i, *trace == 1 && i%2 == 1); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
			return 1
		}
		b.calib = append(b.calib, calibrate())
		// The repetition's host speed is that of the loops around it.
		b.reps[i].scale = calibRefS / ((b.calib[i] + b.calib[i+1]) / 2)
		slowest = max(slowest, time.Since(t))
	}
	steal := stealPct(cpu0, readCPUStat())

	host := fingerprint()
	host["steal_pct"] = steal
	line, _ := json.Marshal(map[string]any{"host": host})
	fmt.Println(string(line))

	res := b.result(*trace == 1, steal)
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// bench collects the repetitions of one run.
type bench struct {
	exe, work, workload string
	seed                int64

	calib    []float64 // calibrate's times: before the first repetition and after each
	reps     []*childOut
	traced   []bool
	problems []string
}

func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// rep measures the workload once, each step in a fresh process.
func (b *bench) rep(i int, traced bool) error {
	flags := func(extra ...string) []string {
		if traced {
			extra = append(extra, "-trace")
		}
		return extra
	}
	dir := filepath.Join(b.work, "rep"+strconv.Itoa(i))
	defer os.RemoveAll(dir)
	var out *childOut
	switch b.workload {
	case "reproduce":
		// Set-up is the program's start-up: five fresh processes that
		// initialise every package and build the registry and engine.
		var setups []float64
		for j := 0; j < 5; j++ {
			start := time.Now()
			if _, err := b.child("ready"); err != nil {
				return err
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		var err error
		if out, err = b.child("reproduce", flags()...); err != nil {
			return err
		}
		out.setups = setups
	case "sweep-warm":
		// Set-up is the cold store-backed sweep that fills the store.
		start := time.Now()
		cold, err := b.child("sweep", flags("-dir", dir)...)
		if err != nil {
			return err
		}
		setup := time.Since(start).Seconds()
		if out, err = b.child("sweep", flags("-dir", dir)...); err != nil {
			return err
		}
		out.setups = []float64{setup}
		if out.Digest != cold.Digest {
			out.Failed = out.Ops
			out.fail("warm output differs from the cold sweep's")
		}
		if out.Exact["engine.simulated"] != 0 || out.Layers["store.hit_ratio"] != 1 {
			out.Failed = out.Ops
			out.fail("warm sweep simulated %v cells, store hit ratio %v",
				out.Exact["engine.simulated"], out.Layers["store.hit_ratio"])
		}
		// The store's write path and the simulation run in set-up.
		out.Exact["store.puts"] = cold.Exact["store.puts"]
		for _, k := range []string{"store.put_s", "cell.run_s", "cell.runs"} {
			out.Layers[k] = cold.Layers[k]
		}
	case "serve":
		var err error
		if out, err = b.child("serve", flags("-dir", dir, "-seed", strconv.FormatInt(b.seed, 10))...); err != nil {
			return err
		}
		out.setups = []float64{out.Setup}
	}
	for _, p := range out.Problems {
		b.problem("rep %d: %s", i, p)
	}
	b.reps = append(b.reps, out)
	b.traced = append(b.traced, traced)
	return nil
}

// child runs one measurement process and decodes its report.
func (b *bench) child(mode string, args ...string) (*childOut, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.exe, append([]string{"-child", mode}, args...)...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", mode, err)
	}
	out := newChildOut()
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return nil, fmt.Errorf("%s report: %w", mode, err)
	}
	return out, nil
}

// result checks the repetitions against each other and summarises them.
func (b *bench) result(traced bool, steal float64) result {
	res := result{Metrics: map[string]metric{}}
	var untraced, tracedReps []*childOut
	for i, r := range b.reps {
		res.Attempted += r.Ops
		res.Failed += r.Failed
		if b.traced[i] {
			tracedReps = append(tracedReps, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	first := b.reps[0]
	for i, r := range b.reps[1:] {
		if r.Digest != first.Digest {
			b.problem("rep %d: output digest differs from rep 0's", i+1)
		}
		if diff := diffCounts(first.Exact, r.Exact); diff != "" {
			if b.traced[i+1] {
				b.problem("rep %d: traced counts differ from the untraced rep 0's: %s", i+1, diff)
			} else {
				b.problem("rep %d: counts are not deterministic: %s", i+1, diff)
			}
		}
	}
	for _, p := range b.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	res.Correct = len(b.problems) == 0 && res.Failed == 0

	if !traced {
		okRate := 0.0
		if res.Attempted > 0 {
			okRate = float64(res.Attempted-res.Failed) / float64(res.Attempted)
		}
		// Times are scaled to the reference host speed, each by the
		// factor of its own repetition.
		var setups []float64
		for _, r := range b.reps {
			for _, s := range r.setups {
				setups = append(setups, s*r.scale)
			}
		}
		vals := map[string]float64{
			"setup_s":     median(setups),
			"wall_s":      medianOf(untraced, func(r *childOut) float64 { return r.Wall * r.scale }),
			"cpu_s":       medianOf(untraced, func(r *childOut) float64 { return r.CPU * r.scale }),
			"peak_rss_mb": medianOf(untraced, func(r *childOut) float64 { return r.RSSMB }),
			"cells_per_s": medianOf(untraced, func(r *childOut) float64 { return r.Exact["engine.cells"] / (r.Wall * r.scale) }),
			"ok_rate":     okRate,
		}
		for _, m := range endToEnd {
			res.Metrics[m[0]] = metric{vals[m[0]], m[1]}
		}
		return res
	}

	// Per-layer values come from one traced repetition, the one with the
	// median wall time, so its top-level spans and unaccounted_s add up
	// to trace.wall_s exactly.
	rep := medianRep(tracedReps)
	vals := map[string]float64{}
	for _, m := range []map[string]float64{rep.Exact, rep.Layers, rep.Spans} {
		for k, v := range m {
			vals[k] = v
		}
	}
	vals["unaccounted_s"] = rep.Wall
	for _, s := range rep.Spans {
		vals["unaccounted_s"] -= s
	}
	vals["trace.wall_s"] = rep.Wall
	vals["trace.overhead_s"] = rep.Wall - medianOf(untraced, func(r *childOut) float64 { return r.Wall })
	vals["sim_mcycles_per_s"] = vals["sim.cycles"] / 1e6 / vals["harness.supervise_s"]
	if b.workload == "serve" {
		lat := map[string][]float64{}
		for _, r := range b.reps {
			for k, v := range r.Lat {
				lat[k] = append(lat[k], v...)
			}
		}
		for _, k := range []string{"optimize", "sweep"} {
			vals[k+"_p50_ms"] = percentile(lat[k], 50)
			vals[k+"_p95_ms"] = percentile(lat[k], 95)
			vals[k+"_samples"] = float64(len(lat[k]))
		}
		vals["req_per_s"] = medianOf(b.reps, func(r *childOut) float64 { return float64(r.Ops) / r.Wall })
	}
	vals["host.steal_pct"] = steal
	vals["host.calib_s"] = median(b.calib)
	vals["host.raw_wall_s"] = medianOf(untraced, func(r *childOut) float64 { return r.Wall })
	vals["host.raw_cpu_s"] = medianOf(untraced, func(r *childOut) float64 { return r.CPU })
	for _, m := range perLayer {
		v := vals[m[0]]
		if math.IsNaN(v) || math.IsInf(v, 0) { // a ratio over a layer the workload bypasses
			v = 0
		}
		res.Metrics[m[0]] = metric{v, m[1]}
	}
	return res
}

// calibRefS is calibrate's median time on the host the bounds in
// BENCHMARK.json were set on (2 vCPUs of an Intel Xeon VM, go1.24). An
// end-to-end time is reported as the time it would have taken at that
// speed: measured time × calibRefS / calibration time.
const calibRefS = 0.35

// calibIters sizes calibrate to about calibRefS on that host.
const calibIters = 150_000_000

var calibSink uint64

// calibrate times a fixed xorshift loop, as a probe of the host's speed
// at the moment. The loop is the benchmark's own code, so a change to
// the measured program cannot move it.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return time.Since(start).Seconds()
}

// medianRep returns the repetition with the median wall time (the
// lower one of an even count).
func medianRep(reps []*childOut) *childOut {
	s := append([]*childOut(nil), reps...)
	sort.Slice(s, func(i, j int) bool { return s[i].Wall < s[j].Wall })
	return s[(len(s)-1)/2]
}

func medianOf(reps []*childOut, f func(*childOut) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// diffCounts describes how two exact-count maps differ ("" if equal).
func diffCounts(a, b map[string]float64) string {
	var diffs []string
	for k, v := range a {
		if b[k] != v {
			diffs = append(diffs, fmt.Sprintf("%s %v vs %v", k, v, b[k]))
		}
	}
	for k, v := range b {
		if _, ok := a[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s missing vs %v", k, v))
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, "; ")
}

// readCPUStat returns the aggregate "cpu" line of /proc/stat: user,
// nice, system, idle, iowait, irq, softirq, steal (nil if unreadable).
func readCPUStat() []float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	out := make([]float64, 8)
	for i := range out {
		out[i], _ = strconv.ParseFloat(fields[i+1], 64)
	}
	return out
}

// stealPct is the share of CPU time the hypervisor took between two
// /proc/stat reads. It is recorded only: no run is dropped or repeated
// because of it.
func stealPct(a, b []float64) float64 {
	if a == nil || b == nil {
		return 0
	}
	var total float64
	for i := range a {
		total += b[i] - a[i]
	}
	if total <= 0 {
		return 0
	}
	return 100 * (b[7] - a[7]) / total
}

// fingerprint describes the host and the source tree measured.
func fingerprint() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the measured source: the git commit when the checkout
// has one, otherwise a digest of the Go sources and module files.
func commit() string {
	if head, err := os.ReadFile(filepath.Join(".git", "HEAD")); err == nil {
		ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
		if !isRef {
			return ref
		}
		if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
			return strings.TrimSpace(string(id))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == ".bench_build" || path == ".git") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || filepath.Base(path) == "go.mod") {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(data))
			h.Write(data)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "source-sha256:" + hex.EncodeToString(h.Sum(nil))
}
