package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// maxKeptSpans bounds the raw spans held for the span file; the
// per-name aggregates the metrics come from are always complete.
const maxKeptSpans = 1 << 20

// Span is one timed call into a layer's public function.
type Span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Req is the request id (query workloads) or epoch id the call
	// served.
	Req   uint64 `json:"req"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Units is the work the call did (packets, bytes, rows), when the
	// layer metric is per unit.
	Units uint64 `json:"units,omitempty"`

	parentName string
}

// spanAgg accumulates every span of one name.
type spanAgg struct {
	count    uint64
	dur      time.Duration
	childDur time.Duration
	units    uint64
}

// Tracer records spans in memory. A nil *Tracer is the untraced mode:
// every method is a no-op, so timed code is identical either way apart
// from the nil checks.
type Tracer struct {
	t0     time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []Span
	agg   map[string]*spanAgg
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer {
	return &Tracer{t0: time.Now(), agg: make(map[string]*spanAgg)}
}

// Start opens a span. parent is the enclosing span (zero value for a
// root span).
func (t *Tracer) Start(name string, parent Span, req uint64) Span {
	if t == nil {
		return Span{}
	}
	return Span{
		Name: name, ID: t.nextID.Add(1), Parent: parent.ID, Req: req,
		Start: int64(time.Since(t.t0)), parentName: parent.Name,
	}
}

// End closes a span that did units of work and records it.
func (t *Tracer) End(s Span, units uint64) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.t0))
	s.Units = units
	d := time.Duration(s.End - s.Start)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) < maxKeptSpans {
		t.spans = append(t.spans, s)
	}
	a := t.aggFor(s.Name)
	a.count++
	a.dur += d
	a.units += units
	if s.parentName != "" {
		t.aggFor(s.parentName).childDur += d
	}
}

func (t *Tracer) aggFor(name string) *spanAgg {
	a := t.agg[name]
	if a == nil {
		a = &spanAgg{}
		t.agg[name] = a
	}
	return a
}

// Stat returns the aggregate of every span named name.
func (t *Tracer) Stat(name string) spanAgg {
	if t == nil {
		return spanAgg{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.agg[name]; a != nil {
		return *a
	}
	return spanAgg{}
}

// PerUnitNs is the mean duration per unit of work of name's spans, in
// nanoseconds (0 when no span did work).
func (t *Tracer) PerUnitNs(name string) float64 {
	a := t.Stat(name)
	if a.units == 0 {
		return 0
	}
	return float64(a.dur) / float64(a.units)
}

// PerCallNs is the mean duration of one name span, in nanoseconds.
func (t *Tracer) PerCallNs(name string) float64 {
	a := t.Stat(name)
	if a.count == 0 {
		return 0
	}
	return float64(a.dur) / float64(a.count)
}

// SelfPerCallNs is the mean self time of one name span: its duration
// minus the part its child spans cover.
func (t *Tracer) SelfPerCallNs(name string) float64 {
	a := t.Stat(name)
	if a.count == 0 {
		return 0
	}
	return float64(a.dur-a.childDur) / float64(a.count)
}

// WriteFile writes the kept spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
