package main

import (
	"bytes"
	"strings"
	"testing"

	"spectrebench/internal/harness"
)

// TestRunStdoutIsPipeClean pins the S1 contract: everything run()
// writes to its output writer is result-table bytes — the cell-cache
// note, store notes and -v breakdowns all go to stderr. A stats line
// leaking into w breaks `spectrebench run | sort | md5sum` pipelines
// and the CI ablation diffs built on them.
func TestRunStdoutIsPipeClean(t *testing.T) {
	var buf bytes.Buffer
	if code := run(&buf, []string{"table2"}, false, harness.RunConfig{}, "", true); code != 0 {
		t.Fatalf("run returned %d", code)
	}
	out := buf.String()
	if out == "" {
		t.Fatal("run wrote nothing")
	}
	for _, bad := range []string{"spectrebench:", "cell cache", "engine:"} {
		if strings.Contains(out, bad) {
			t.Errorf("stdout contains %q — stats leaked off stderr:\n%s", bad, out)
		}
	}
	// Exactly the render of the same experiment: no extra prefix/suffix.
	if !strings.HasPrefix(out, "table2 — ") {
		t.Errorf("stdout does not start with the result table:\n%.120s", out)
	}
}

// TestGridbenchStdoutIsPipeClean: gridbench's writer carries one line
// per cell plus the deterministic trailer, nothing else, even with -v
// and a store attached (both print to stderr only).
func TestGridbenchStdoutIsPipeClean(t *testing.T) {
	var buf bytes.Buffer
	code := gridbench(&buf, gridOptions{
		cells:    200,
		cfg:      harness.RunConfig{},
		storeDir: t.TempDir(),
		verbose:  true,
	})
	if code != 0 {
		t.Fatalf("gridbench returned %d", code)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 201 {
		t.Fatalf("stdout holds %d lines, want 200 cells + trailer", len(lines))
	}
	for i, line := range lines[:200] {
		if !strings.Contains(line, " cyc") || strings.Contains(line, "spectrebench") {
			t.Errorf("line %d is not a cell result: %q", i, line)
		}
	}
	if !strings.HasPrefix(lines[200], "grid: 200 cells, ") {
		t.Errorf("trailer = %q", lines[200])
	}
}
