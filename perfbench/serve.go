package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"spectrebench/internal/attacks"
	"spectrebench/internal/cpu"
	"spectrebench/internal/engine"
	"spectrebench/internal/grid"
	"spectrebench/internal/model"
	"spectrebench/internal/optimize"
	"spectrebench/internal/server"
	"spectrebench/internal/simscope"
	"spectrebench/internal/store"
)

// primed lists the experiments serve's set-up sweeps once, so the timed
// /sweep requests measure serving and rendering from the memo rather
// than simulation. The four largest experiments (fig2, fig3,
// vm-lebench, whatif-v1hw) are left out to keep set-up short; reproduce
// covers them.
var primed = []string{
	"fig5", "lebench-detail", "parsec-default", "security", "smt-cost",
	"table1", "table2", "table3", "table4", "table5", "table6", "table7",
	"table8", "table9", "table10", "vm-lfs",
}

// requirements are attack sets every simulated uarch can block
// (`-require all` and mds-smt are unsatisfiable on some).
var requirements = []string{
	"default",
	"meltdown,spectre-v1",
	"spectre-v2-kernel,spectre-v2-user,spectre-rsb",
	"mds,l1tf,l1tf-vmm",
	"ssb-any",
}

const (
	// optRepeats is how often each distinct /optimize request recurs:
	// the first sighting simulates and stores its cells, the rest
	// replay them.
	optRepeats = 4
	// sweepRepeats is how often each primed experiment is swept. With
	// 18 × optRepeats /optimize requests and 16 × sweepRepeats /sweep
	// requests per repetition, three repetitions give each endpoint over
	// 200 samples: more than ten beyond its 95th percentile.
	sweepRepeats = 5
)

// request is one step of serve's closed loop.
type request struct {
	kind string // "optimize" or "sweep"
	body []byte
	opt  server.OptimizeRequest
}

// serveSequence derives the request sequence from seed. Its make-up is
// the same for every seed, so seeds differ in order, not in the cells
// simulated: the i-th grid workload is the objective of one
// single-uarch /optimize request on the i-th uarch and requirement
// (cycling through both lists), repeated optRepeats times; every primed
// experiment is swept sweepRepeats times; and the seed shuffles the
// whole sequence.
func serveSequence(seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	uarchs := model.Names()
	var seq []request
	for i, w := range grid.WorkloadNames() {
		opt := server.OptimizeRequest{
			Require:   requirements[i%len(requirements)],
			Workloads: []string{w},
			Uarchs:    []string{uarchs[i%len(uarchs)]},
		}
		body, _ := json.Marshal(opt) // plain struct: cannot fail
		for r := 0; r < optRepeats; r++ {
			seq = append(seq, request{kind: "optimize", body: body, opt: opt})
		}
	}
	for _, id := range primed {
		body, _ := json.Marshal(server.SweepRequest{Experiments: []string{id}, Seed: 1})
		for r := 0; r < sweepRepeats; r++ {
			seq = append(seq, request{kind: "sweep", body: body})
		}
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// benchz is the daemon's resource report, served next to the program's
// own endpoints.
type benchz struct {
	CPU      float64            `json:"cpu_s"`
	MaxRSSMB float64            `json:"max_rss_mb"`
	AllocB   float64            `json:"alloc_b"`
	GCCycles float64            `json:"gc_cycles"`
	GCCPU    float64            `json:"gc_cpu_s"`
	Layers   map[string]float64 `json:"layers"`
}

// daemon is `spectrebench -jobs 1 -store DIR serve` on a loopback port
// chosen by the kernel, plus GET /benchz. It prints its address on
// standard output and drains on SIGTERM.
func daemon(dir string, traced bool) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	var ts *timedStore
	if traced {
		ts = &timedStore{Store: st}
		engine.Default().SetSecondLevel(ts)
	} else {
		engine.Default().SetSecondLevel(st)
	}
	srv := server.New(server.Config{Engine: engine.Default(), Store: st})
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("/benchz", func(w http.ResponseWriter, r *http.Request) {
		u := sampleUsage()
		b := benchz{CPU: u.cpu, MaxRSSMB: u.maxRSSMB, AllocB: u.allocB, GCCycles: u.gcCycles,
			GCCPU: u.gcCPU, Layers: map[string]float64{}}
		ts.layers(b.Layers)
		json.NewEncoder(w).Encode(b)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: mux}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	fmt.Println(ln.Addr())

	select {
	case <-sigCh:
	case err := <-errCh:
		st.Close()
		return err
	}
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	srv.WaitIdle(ctx)
	httpSrv.Shutdown(ctx)
	engine.CloseDefault()
	return st.Close()
}

// serveClient starts a daemon on a fresh store in dir, primes it, runs
// the seeded closed loop over one connection, and reports. The daemon
// is stopped and waited for on every path.
func serveClient(dir string, seed int64, traced bool) (*childOut, error) {
	out := newChildOut()
	seq := serveSequence(seed)

	start := time.Now()
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "daemon", "-dir", dir}
	if traced {
		args = append(args, "-trace")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	// The daemon must not outlive this client, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	stopped := false
	stop := func() error {
		if stopped {
			return nil
		}
		stopped = true
		return stopDaemon(cmd)
	}
	defer stop()
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("daemon address: %w", err)
	}
	base := "http://" + strings.TrimSpace(line)
	cl := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: time.Minute}

	primeBody, _ := json.Marshal(server.SweepRequest{Experiments: primed, Seed: 1})
	if _, _, err := call(cl, base, request{kind: "sweep", body: primeBody}); err != nil {
		return nil, fmt.Errorf("prime: %w", err)
	}
	out.Setup = time.Since(start).Seconds()

	var s0, s1 server.StatsSnapshot
	var b0, b1 benchz
	if err := getJSON(cl, base+"/statsz", &s0); err != nil {
		return nil, err
	}
	if err := getJSON(cl, base+"/benchz", &b0); err != nil {
		return nil, err
	}

	h := sha256.New()
	out.Lat = map[string][]float64{}
	ttfb := map[string]float64{}
	loop := time.Now()
	for _, req := range seq {
		t0 := time.Now()
		digest, first, err := call(cl, base, req)
		lat := time.Since(t0)
		out.Ops++
		if err != nil {
			out.Failed++
			out.fail("%s %s: %v", req.kind, req.body, err)
			continue
		}
		h.Write(digest)
		out.Lat[req.kind] = append(out.Lat[req.kind], lat.Seconds()*1e3)
		out.Spans["serve."+req.kind+"_s"] += lat.Seconds()
		ttfb[req.kind] += first.Sub(t0).Seconds() * 1e3
	}
	out.Wall = time.Since(loop).Seconds()

	if err := getJSON(cl, base+"/benchz", &b1); err != nil {
		return nil, err
	}
	if err := getJSON(cl, base+"/statsz", &s1); err != nil {
		return nil, err
	}
	out.Digest = digestOf(h)
	out.CPU = b1.CPU - b0.CPU
	out.RSSMB = b1.MaxRSSMB
	d := detail(s1.Engine).Sub(detail(s0.Engine))
	engineCounts(d, out.Exact)
	if s0.Store != nil && s1.Store != nil {
		a, b := s0.Store, s1.Store
		out.Exact["store.puts"] = float64(b.Puts - a.Puts)
		out.Exact["store.get_batches"] = float64(b.GetBatches - a.GetBatches)
		if n := b.Hits + b.Misses - a.Hits - a.Misses; n > 0 {
			out.Layers["store.hit_ratio"] = float64(b.Hits-a.Hits) / float64(n)
		}
	}
	var o0, o1 server.OptimizeStats
	if s0.Optimize != nil {
		o0 = *s0.Optimize
	}
	if s1.Optimize != nil {
		o1 = *s1.Optimize
	}
	out.Exact["optimize.examined"] = float64(o1.Examined - o0.Examined)
	out.Exact["optimize.classes"] = float64(o1.Classes - o0.Classes)
	out.Exact["optimize.evaluated"] = float64(o1.Evaluated - o0.Evaluated)
	out.Exact["optimize.pruned"] = float64(o1.Pruned - o0.Pruned)
	out.Exact["server.accepted"] = float64(s1.Server.Accepted - s0.Server.Accepted)
	out.Exact["server.rejected"] = float64(s1.Server.Rejected - s0.Server.Rejected)
	out.Exact["server.completed"] = float64(s1.Server.Completed - s0.Server.Completed)
	out.Exact["server.timed_out"] = float64(s1.Server.TimedOut - s0.Server.TimedOut)
	for k, v := range b1.Layers {
		out.Layers[k] = v - b0.Layers[k]
	}
	out.Layers["cell.runs"] = float64(d.Simulated)
	out.Layers["runtime.alloc_mb"] = (b1.AllocB - b0.AllocB) / (1 << 20)
	out.Layers["runtime.gc_cycles"] = b1.GCCycles - b0.GCCycles
	out.Layers["runtime.gc_cpu_s"] = b1.GCCPU - b0.GCCPU
	for kind, total := range ttfb {
		if n := len(out.Lat[kind]); n > 0 {
			out.Layers["server."+kind+"_ttfb_ms"] = total / float64(n)
		}
	}
	if err := stop(); err != nil {
		out.fail("daemon did not drain cleanly: %v", err)
	}
	if traced {
		search, err := directSearch(seq)
		if err != nil {
			return nil, err
		}
		out.Layers["optimize.search_s"] = search
		if n := len(out.Lat["optimize"]); n > 0 {
			out.Layers["server.overhead_ms"] = (out.Spans["serve.optimize_s"] - search) * 1e3 / float64(n)
		}
	}
	return out, nil
}

// stopDaemon sends SIGTERM, lets the daemon drain, and kills it if the
// drain hangs; it always waits for the process to exit, and reports
// whether it exited cleanly.
func stopDaemon(cmd *exec.Cmd) error {
	cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		<-done
		return errors.New("drain timed out; killed")
	}
}

// call sends one request and reads its NDJSON stream to the end. It
// returns the digest input of the response (records without the
// time-dependent stats) and when the first record arrived. A response
// fails unless it is HTTP 200, ends in an error-free summary, and, for
// /optimize, names a best configuration for every uarch.
func call(cl *http.Client, base string, req request) ([]byte, time.Time, error) {
	var first time.Time
	resp, err := cl.Post(base+"/"+req.kind, "application/json", bytes.NewReader(req.body))
	if err != nil {
		return nil, first, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, first, fmt.Errorf("HTTP %s", resp.Status)
	}
	var digest bytes.Buffer
	br := bufio.NewReader(resp.Body)
	summary := false
	for {
		line, err := br.ReadBytes('\n')
		if first.IsZero() && len(line) > 0 {
			first = time.Now()
		}
		if len(bytes.TrimSpace(line)) > 0 {
			ok, err := checkRecord(req.kind, line, &digest)
			if err != nil {
				return nil, first, err
			}
			summary = summary || ok
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, first, err
		}
	}
	if !summary {
		return nil, first, errors.New("no summary record")
	}
	return digest.Bytes(), first, nil
}

// checkRecord validates one NDJSON record, appends its deterministic
// part to digest, and reports whether it was the final summary.
func checkRecord(kind string, line []byte, digest *bytes.Buffer) (bool, error) {
	if kind == "optimize" {
		var rec server.OptimizeRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return false, err
		}
		switch rec.Type {
		case "uarch":
			if rec.Uarch == nil || rec.Uarch.Best == nil {
				return false, errors.New("uarch record without a best configuration")
			}
			b, _ := json.Marshal(rec.Uarch)
			digest.Write(b)
			return false, nil
		case "summary":
			if rec.Err != "" || rec.Result == nil {
				return false, fmt.Errorf("summary error %q", rec.Err)
			}
			fmt.Fprintf(digest, "%+v\n", rec.Result.Totals)
			return true, nil
		}
		return false, fmt.Errorf("%s record: %s", rec.Type, rec.Err)
	}
	var rec server.Record
	if err := json.Unmarshal(line, &rec); err != nil {
		return false, err
	}
	switch rec.Type {
	case "result":
		if rec.Status != "ok" {
			return false, fmt.Errorf("%s: status %s", rec.ID, rec.Status)
		}
		digest.WriteString(rec.Rendered)
		return false, nil
	case "summary":
		if rec.Failed != 0 || rec.TimedOut {
			return false, fmt.Errorf("summary: %d failed, timedOut=%v", rec.Failed, rec.TimedOut)
		}
		digest.WriteString(rec.Rendered)
		return true, nil
	}
	return false, fmt.Errorf("%s record: %s", rec.Type, rec.Err)
}

func getJSON(cl *http.Client, url string, v any) error {
	resp, err := cl.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// detail converts a /statsz engine report back to the engine's type.
func detail(e server.EngineStats) engine.StatsDetail {
	return engine.StatsDetail{
		Hits: e.Hits, Misses: e.Misses, ClassHits: e.ClassHits,
		SecondLevelHits: e.SecondLevelHits, Classes: e.Classes,
		Simulated: e.Simulated, InlineFanouts: e.InlineFanouts,
		BatchedCells: e.BatchedCells,
	}
}

// directSearch runs the sequence's /optimize requests through
// optimize.Search in this process, on a fresh one-worker engine
// without a store, resolved and scoped as the server does, and returns
// the seconds spent searching.
func directSearch(seq []request) (float64, error) {
	eng := engine.New(1)
	defer eng.Close()
	var total time.Duration
	for _, req := range seq {
		if req.kind != "optimize" {
			continue
		}
		require, err := attacks.ParseRequirement(req.opt.Require)
		if err != nil {
			return 0, err
		}
		opts := optimize.Options{Require: require, Prune: true}
		for _, name := range req.opt.Workloads {
			w, err := grid.LookupWorkload(name)
			if err != nil {
				return 0, err
			}
			opts.Workloads = append(opts.Workloads, w)
		}
		if opts.Uarchs, err = optimize.SelectUarchs(req.opt.Uarchs); err != nil {
			return 0, err
		}
		sc := &simscope.Scope{Budget: cpu.DefaultCycleBudget(), HasBudget: true}
		restore := simscope.Enter(sc)
		start := time.Now()
		_, err = optimize.Search(eng, opts)
		total += time.Since(start)
		restore()
		sc.Release()
		if err != nil {
			return 0, err
		}
	}
	return total.Seconds(), nil
}
