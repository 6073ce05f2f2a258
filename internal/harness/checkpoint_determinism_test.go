package harness

import (
	"testing"

	"spectrebench/internal/checkpoint"
	"spectrebench/internal/engine"
)

// TestCheckpointWarmRegistryDeterminism pins the fork path specifically:
// a batch run against an already-warm registry — where every cell forks
// from images built by a previous batch instead of building them itself
// — must produce the same bytes as the cold-registry run that built
// them. This is the "fork thousands of cells from snapshots" contract:
// first touch builds, every later touch replays.
func TestCheckpointWarmRegistryDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("batch runs are slow")
	}
	exps := lookupAll(t, []string{"table3", "fig3"})

	defer checkpoint.Clear()
	checkpoint.Clear()
	cold := renderBatch(t, exps, 1, true)
	h0, _ := checkpoint.Stats()
	warm := renderBatch(t, exps, 1, true) // registry still holds the images
	h1, _ := checkpoint.Stats()
	if warm != cold {
		t.Errorf("warm-registry run differs from the cold run that built the images\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
	if h1 <= h0 {
		t.Errorf("warm run recorded no checkpoint hits (%d -> %d); the fork path was not exercised", h0, h1)
	}
}

// TestCheckpointRegistryServesForks sanity-checks coverage inside one
// batch: a multi-cell experiment list under -checkpoint on must fork at
// least some state from the registry rather than building every cell
// cold — otherwise the oracle matrix proves nothing about forked cells.
func TestCheckpointRegistryServesForks(t *testing.T) {
	if testing.Short() {
		t.Skip("batch run is slow")
	}
	defer checkpoint.Clear()
	checkpoint.Clear()

	eng := engine.New(1)
	defer eng.Close()
	cfg := RunConfig{Retries: DefaultRetries, Engine: eng}
	res := SuperviseAll(lookupAll(t, []string{"fig3"}), cfg)
	for _, r := range res {
		if r.Status != StatusOK {
			t.Fatalf("%s: %s: %v", r.ID, r.Status, r.Err)
		}
	}
	hits, misses := checkpoint.Stats()
	if hits == 0 {
		t.Errorf("no checkpoint hits in a fig3 batch (misses=%d); cells never forked from images", misses)
	}
	if misses == 0 {
		t.Error("no checkpoint misses; nothing was ever built cold, which should be impossible for first touches")
	}
}
