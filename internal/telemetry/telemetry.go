// Package telemetry is the simulation's zero-perturbation observation
// layer: a deterministic metrics registry (counters, gauges,
// fixed-bound histograms), a bounded structured event tracer with
// JSONL export, and a virtual-cycle attribution profiler that buckets
// every cycle the simulated servers charge and emits folded-stack
// output for standard flamegraph tools.
//
// Zero-perturbation contract: telemetry only ever *observes*. No
// instrument feeds a value back into the simulation, draws from a
// simulation PRNG, or reorders floating-point accumulation on a
// simulation path, so simulation output is byte-identical with
// telemetry enabled, disabled, and at every worker count (pinned by
// determinism tests in internal/server, internal/cluster and
// cmd/jumpstartd).
//
// Concurrency: metric instruments (Counter, Gauge, Histogram) are
// updated with atomics and may be read concurrently — that is what
// lets cmd/jumpstartd serve a live /metrics endpoint while the
// simulation runs. Trace and CycleProfile are single-writer: they
// must only be touched from the goroutine driving the simulation
// (exports happen after the run, or from the same goroutine). Code
// with a parallel fan-out records its metrics after the join, in
// task-index order, so snapshots do not depend on the worker count.
package telemetry

// Set bundles the three instruments behind one handle. A nil *Set —
// and any nil field of a non-nil Set — disables the corresponding
// instrument: every method in this package is nil-receiver safe, so
// instrumented code carries no "is telemetry on?" branches.
type Set struct {
	Metrics *Registry
	Trace   *Trace
	Cycles  *CycleProfile
}

// NewSet returns a Set with all three instruments enabled at default
// capacities.
func NewSet() *Set {
	return &Set{
		Metrics: NewRegistry(),
		Trace:   NewTrace(0),
		Cycles:  NewCycleProfile(),
	}
}

// Counter resolves a counter by name, or nil when metrics are off.
func (s *Set) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	return s.Metrics.Counter(name)
}

// Gauge resolves a gauge by name, or nil when metrics are off.
func (s *Set) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	return s.Metrics.Gauge(name)
}

// Histogram resolves a histogram by name, or nil when metrics are off.
func (s *Set) Histogram(name string, bounds []float64) *Histogram {
	if s == nil {
		return nil
	}
	return s.Metrics.Histogram(name, bounds)
}

// Event records an instantaneous trace event (no-op when tracing is
// off).
func (s *Set) Event(t float64, cat, name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.Trace.Event(t, cat, name, attrs...)
}

// Span records a trace span covering [t0, t1] (no-op when tracing is
// off).
func (s *Set) Span(t0, t1 float64, cat, name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.Trace.Span(t0, t1, cat, name, attrs...)
}

// BeginSpan reserves a causal span ID (0 when tracing is off). Close
// it with EndSpan once the end time is known; children recorded in the
// meantime reference it as their parent.
func (s *Set) BeginSpan() uint64 {
	if s == nil {
		return 0
	}
	return s.Trace.BeginSpan()
}

// EndSpan records the span reserved by BeginSpan (no-op when tracing
// is off or id is 0).
func (s *Set) EndSpan(id, parent uint64, t0, t1 float64, cat, name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.Trace.EndSpan(id, parent, t0, t1, cat, name, attrs...)
}

// SpanUnder records a complete child span under parent and returns its
// ID (0 when tracing is off).
func (s *Set) SpanUnder(parent uint64, t0, t1 float64, cat, name string, attrs ...Attr) uint64 {
	if s == nil {
		return 0
	}
	return s.Trace.SpanUnder(parent, t0, t1, cat, name, attrs...)
}

// CycleProf returns the cycle profiler, or nil when profiling is off.
func (s *Set) CycleProf() *CycleProfile {
	if s == nil {
		return nil
	}
	return s.Cycles
}
