package grid

import (
	"reflect"
	"testing"

	"spectrebench/internal/engine"
	"spectrebench/internal/simscope"
)

// TestCellsPrefixStable: the enumeration is deterministic and
// prefix-stable — -cells N names the same cells in the same order no
// matter how large the sweep around it is.
func TestCellsPrefixStable(t *testing.T) {
	small := Cells(100, 0)
	big := Cells(500, 0)
	if len(small) != 100 || len(big) != 500 {
		t.Fatalf("lengths %d/%d, want 100/500", len(small), len(big))
	}
	if !reflect.DeepEqual(small, big[:100]) {
		t.Fatal("Cells(100) is not a prefix of Cells(500)")
	}
}

// TestDisplayKeysUnique: every cell in the full grid has a distinct
// display key (the boot-param rendering is injective), so no two cells
// alias in the memo cache.
func TestDisplayKeysUnique(t *testing.T) {
	cells := Cells(MaxCells(), 0)
	if len(cells) != MaxCells() {
		t.Fatalf("full grid has %d cells, want %d", len(cells), MaxCells())
	}
	seen := make(map[engine.Key]int, len(cells))
	for i, c := range cells {
		if j, dup := seen[c.Display]; dup {
			t.Fatalf("cells %d and %d share display key %v", j, i, c.Display)
		}
		seen[c.Display] = i
	}
}

// TestCanonKeyMatchesEffectiveMitigations: cells share a canonical key
// exactly when their lowered mitigation sets (and uarch) are equal —
// the correctness condition for sharing one simulation.
func TestCanonKeyMatchesEffectiveMitigations(t *testing.T) {
	cells := Cells(20000, 0)
	byCanon := map[engine.Key]Cell{}
	for _, c := range cells {
		if c.Canon.Uarch != c.Display.Uarch || c.Canon.Workload != c.Display.Workload || c.Canon.Seed != c.Display.Seed {
			t.Fatalf("canonical key changes non-config fields: %v vs %v", c.Canon, c.Display)
		}
		first, ok := byCanon[c.Canon]
		if !ok {
			byCanon[c.Canon] = c
			continue
		}
		if first.Mit != c.Mit {
			t.Fatalf("canon key %v covers different mitigation sets:\n  %+v\n  %+v", c.Canon, first.Mit, c.Mit)
		}
	}
	// And distinct canon keys on one uarch mean distinct mitigations.
	byMit := map[string]engine.Key{}
	for canon, c := range byCanon {
		mk := c.Display.Uarch + "|" + c.Mit.CanonicalKey()
		if prev, dup := byMit[mk]; dup && prev != canon {
			t.Fatalf("mitigation set %q has two canon keys: %v and %v", mk, prev, canon)
		}
		byMit[mk] = canon
	}
}

// TestDedupRatioSubstantial pins the point of the whole exercise: the
// boot-param space is massively redundant, so classes must be an order
// of magnitude fewer than cells.
func TestDedupRatioSubstantial(t *testing.T) {
	cells := Cells(10000, 0)
	classes := Classes(cells)
	t.Logf("10000 cells, %d classes (%.1fx)", classes, float64(len(cells))/float64(classes))
	if classes*8 > len(cells) {
		t.Fatalf("dedup ratio %.1fx below 8x — canonicalisation is not folding", float64(len(cells))/float64(classes))
	}
}

// TestCanonicalizerPassesForeignKeysThrough: keys outside the cell set
// (other experiments sharing the engine) are untouched.
func TestCanonicalizerPassesForeignKeysThrough(t *testing.T) {
	cz := Canonicalizer(Cells(100, 0))
	foreign := engine.Key{Workload: "lebench/run", Uarch: "Skylake Client", Config: "whatever"}
	if got := cz(foreign); got != foreign {
		t.Fatalf("foreign key rewritten: %v -> %v", foreign, got)
	}
	cells := Cells(100, 0)
	if got := cz(cells[42].Display); got != cells[42].Canon {
		t.Fatalf("grid key folded to %v, want %v", got, cells[42].Canon)
	}
}

// TestEndToEndDedupMatchesNoDedup runs a small grid prefix through two
// engines — dedup on and off — and requires identical per-cell values:
// the ablation byte-identity contract at unit-test scale.
func TestEndToEndDedupMatchesNoDedup(t *testing.T) {
	cells := Cells(24, 0)
	run := func(e *engine.Engine) []float64 {
		defer e.Close()
		e.SetCanonicalizer(Canonicalizer(cells))
		var tasks []*engine.Task
		for _, c := range cells {
			c := c
			tasks = append(tasks, e.Submit(c.Display, c.Run))
		}
		out := make([]float64, len(tasks))
		for i, tk := range tasks {
			v, err := tk.Wait()
			if err != nil {
				t.Fatalf("cell %d: %v", i, err)
			}
			out[i] = v.(float64)
		}
		return out
	}

	deduped := run(engine.New(2))

	plain := run(engine.NewWithOptions(2, simscope.Options{NoDedup: true}))

	if !reflect.DeepEqual(deduped, plain) {
		t.Fatalf("dedup on/off diverge:\n  on:  %v\n  off: %v", deduped, plain)
	}
}
