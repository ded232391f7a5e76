// Package telemetry is the runtime instrumentation layer: atomic
// counters and gauges, a lock-free fixed-bucket histogram with log2
// buckets, and a registry that snapshots every metric consistently and
// serves the result as expvar-style JSON next to net/http/pprof.
//
// The package is stdlib-only and allocation-free on the record path:
// Counter.Add, Gauge.Set and Histogram.Observe are single atomic
// operations on pre-registered state. Every metric method is nil-safe —
// calling Add/Set/Observe on a nil metric is a no-op — so instrumented
// code holds plain pointers and pays only a predictable nil-check when
// telemetry is off. Disabled (a nil *Registry) hands out exactly those
// nil metrics, which is how the hot paths of internal/core and
// internal/shard compile to near-zero overhead without build tags.
//
// Hot loops should not call these methods per packet: the repository
// convention is to accumulate plain (single-goroutine) counts and
// flush one atomic delta per burst or batch chunk — see
// core.SetTelemetry and the burst-level hooks of shard's replay loop.
package telemetry

import "sync/atomic"

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter is a valid no-op (the disabled
// form). Safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (ring occupancy, tracked
// epochs). The zero value is ready to use; a nil *Gauge is a valid
// no-op. Safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by d (negative to decrease). No-op on a nil
// receiver.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// SketchMetrics groups the per-sketch update-outcome counters that
// internal/core flushes once per insert batch: every insert lands in
// exactly one of Matched (an existing bucket for the key absorbed the
// packet), Replaced (the minimum bucket's key was evicted) or Kept
// (the minimum bucket was incremented but kept its key), so
// Matched+Replaced+Kept equals the number of non-zero-weight inserts.
// Merges counts whole-sketch Merge calls.
type SketchMetrics struct {
	// Matched counts inserts absorbed by a bucket already holding the
	// key (zero variance increment, paper Theorem 2).
	Matched *Counter
	// Replaced counts key replacements: the minimum bucket took the
	// incoming key with probability w/V (paper Theorem 1).
	Replaced *Counter
	// Kept counts inserts that incremented the minimum bucket without
	// winning the replacement draw.
	Kept *Counter
	// Merges counts Merge calls into this sketch.
	Merges *Counter
}

// NewSketchMetrics registers the sketch counters under
// prefix+".matched" etc. and returns the group. A nil registry returns
// nil, which the core sketches treat as telemetry off.
func NewSketchMetrics(r *Registry, prefix string) *SketchMetrics {
	if r == nil {
		return nil
	}
	return &SketchMetrics{
		Matched:  r.Counter(prefix + ".matched"),
		Replaced: r.Counter(prefix + ".replaced"),
		Kept:     r.Counter(prefix + ".kept"),
		Merges:   r.Counter(prefix + ".merges"),
	}
}
