package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"spectrebench/internal/engine"
	"spectrebench/internal/faultinject"
	"spectrebench/internal/gls"
	"spectrebench/internal/grid"
	"spectrebench/internal/harness"
	"spectrebench/internal/store"
)

// gridOptions carries the gridbench subcommand's flags.
type gridOptions struct {
	cells    int
	cfg      harness.RunConfig
	storeDir string
	verbose  bool
}

// gridbench runs the synthetic boot-param configuration grid — the
// million-cell sweep throughput benchmark — writing one line per cell
// to w in submission order plus a deterministic trailer, so output is
// byte-identical across -jobs × -dedup × -plan × -store settings (and
// across -faults runs at a fixed seed); timing and engine statistics go
// to stderr only, keeping w pipe-clean. The timer spans the whole path —
// grid construction, store open, sweep, drain and store close — so the
// cells/sec line is what a caller of the command observes.
func gridbench(w io.Writer, opts gridOptions) int {
	if opts.cells <= 0 {
		fmt.Fprintln(os.Stderr, "spectrebench: gridbench: -cells must be positive")
		return 2
	}
	start := time.Now()
	var seed uint64
	if opts.cfg.Faults {
		seed = opts.cfg.Seed
		faultinject.Activate(faultinject.Config{Seed: opts.cfg.Seed})
		defer faultinject.Deactivate()
	}
	cells := grid.Cells(opts.cells, seed)

	eng := engine.Default()
	// The canonicalizer is installed in every mode: with -dedup off it
	// no longer folds cells onto shared class tasks, but it still keys
	// each cell's fault seed and store identity canonically, which is
	// what keeps the ablation byte-identical.
	eng.SetCanonicalizer(grid.Canonicalizer(cells))

	var st *store.Store
	if opts.storeDir != "" {
		var err error
		st, err = store.Open(opts.storeDir, store.Options{
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "spectrebench: "+format+"\n", args...)
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "spectrebench: -store: %v\n", err)
			return 2
		}
		eng.SetSecondLevel(st)
	}

	bcells := make([]engine.BatchCell, len(cells))
	for i, c := range cells {
		bcells[i] = engine.BatchCell{Key: c.Display, Fn: c.Run}
	}
	tasks := eng.SubmitBatch(bcells)
	// Buffered, batched result drain: one goroutine-identity parse
	// (WaitG) and hand-rolled float formatting for the whole slice
	// (AppendFloat 'f'/2 is %.2f). Per-cell Printf syscalls dominate
	// warm sweeps otherwise. Flushed once before the trailer-bearing
	// return.
	bw := bufio.NewWriterSize(w, 1<<16)
	failed := 0
	gid := gls.ID() // one parse for the whole drain loop
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
	classes := grid.Classes(cells)
	fmt.Fprintf(bw, "grid: %d cells, %d classes, %d failed\n", len(cells), classes, failed)
	werr := bw.Flush()
	if st != nil {
		fmt.Fprintln(os.Stderr, "spectrebench: "+st.Note())
		if err := st.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "spectrebench: store close: %v\n", err)
		}
	}
	if werr != nil {
		fmt.Fprintf(os.Stderr, "spectrebench: gridbench: write: %v\n", werr)
		return 1
	}
	elapsed := time.Since(start)

	d := eng.StatsDetail()
	fmt.Fprintf(os.Stderr,
		"spectrebench: gridbench: %d cells in %.2fs (%.0f cells/sec, jobs=%d, dedup=%v, plan=%v, dedup ratio %.1fx)\n",
		len(cells), elapsed.Seconds(), float64(len(cells))/elapsed.Seconds(),
		eng.Jobs(), eng.DedupEnabled(), eng.PlanEnabled(),
		float64(len(cells))/float64(classes))
	if opts.verbose {
		fmt.Fprintf(os.Stderr, "spectrebench: engine: %s\n", d)
		fmt.Fprintf(os.Stderr,
			"spectrebench: gridbench: examined %d configs -> %d classes; %d simulated, %d replayed from store\n",
			len(cells), d.Classes, d.Simulated, d.SecondLevelHits)
	}
	if failed > 0 {
		return 1
	}
	return 0
}
