package checkpoint

import (
	"testing"

	"spectrebench/internal/simscope"
)

// TestGetHonoursScopeOptions: under a scope with NoCheckpoint, Get
// neither consults the registry nor runs build, so the caller takes its
// cold path; with no scope, or the zero Options, it serves the snapshot.
func TestGetHonoursScopeOptions(t *testing.T) {
	defer Clear()
	Clear()
	builds := 0
	build := func() any { builds++; return builds }

	off := &simscope.Scope{Options: simscope.Options{NoCheckpoint: true}}
	if v, ok := Get(off, "k", build); ok || v != nil || builds != 0 {
		t.Fatalf("NoCheckpoint scope: Get = (%v, %v) after %d builds, want (nil, false) and no build", v, ok, builds)
	}
	if h, m := Stats(); h != 0 || m != 0 {
		t.Fatalf("NoCheckpoint scope touched the registry: %d hits, %d misses", h, m)
	}
	for i, sc := range []*simscope.Scope{nil, {}} {
		if v, ok := Get(sc, "k", build); !ok || v != 1 || builds != 1 {
			t.Fatalf("call %d: Get = (%v, %v) after %d builds, want (1, true) from one build", i, v, ok, builds)
		}
	}
}
