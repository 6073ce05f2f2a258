package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"spectrebench/internal/engine"
	"spectrebench/internal/store"
)

// span accumulates the time spent in one kind of call and how often it
// was made. Safe for concurrent use: the engine calls the store from the
// submitting goroutine and from its worker.
type span struct {
	ns, n atomic.Int64
}

func (s *span) add(start time.Time) {
	s.ns.Add(int64(time.Since(start)))
	s.n.Add(1)
}

func (s *span) seconds() float64 { return float64(s.ns.Load()) / 1e9 }
func (s *span) count() float64   { return float64(s.n.Load()) }

// timedStore times the store calls the engine makes. Embedding the
// *store.Store keeps every optional engine extension (BatchSecondLevel,
// LinkRecorder, BatchLinkRecorder) visible to the engine's type
// assertions, so the traced run takes the same engine path as the
// untraced one; the run compares their engine.StatsDetail to prove it.
type timedStore struct {
	*store.Store
	getBatch, put, linkBatch span
}

func (t *timedStore) GetBatch(keys []engine.Key) []engine.BatchGet {
	defer t.getBatch.add(time.Now())
	return t.Store.GetBatch(keys)
}

func (t *timedStore) Put(key engine.Key, val any, cycles uint64) {
	defer t.put.add(time.Now())
	t.Store.Put(key, val, cycles)
}

func (t *timedStore) PutLinkBatch(pairs []engine.LinkPair) {
	defer t.linkBatch.add(time.Now())
	t.Store.PutLinkBatch(pairs)
}

// layers reports the wrapper's timers; nil-safe so untraced runs can
// call it unconditionally.
func (t *timedStore) layers(out map[string]float64) {
	if t == nil {
		return
	}
	out["store.get_batch_s"] = t.getBatch.seconds()
	out["store.put_s"] = t.put.seconds()
	out["store.link_batch_s"] = t.linkBatch.seconds()
}

// usage is a process resource sample: wall clock, CPU time and the Go
// runtime's allocation and GC counters.
type usage struct {
	at       time.Time
	cpu      float64 // user + sys seconds
	maxRSSMB float64
	allocB   float64
	gcCycles float64
	gcCPU    float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func sampleUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	return usage{
		at:       time.Now(),
		cpu:      tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		maxRSSMB: float64(ru.Maxrss) / 1024, // Linux reports KiB
		allocB:   metricFloat(s[0]),
		gcCycles: metricFloat(s[1]),
		gcCPU:    metricFloat(s[2]),
	}
}

func metricFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// runtimeLayers reports the Go runtime's share of the interval a..b.
func runtimeLayers(a, b usage, out map[string]float64) {
	out["runtime.alloc_mb"] = (b.allocB - a.allocB) / (1 << 20)
	out["runtime.gc_cycles"] = b.gcCycles - a.gcCycles
	out["runtime.gc_cpu_s"] = b.gcCPU - a.gcCPU
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
