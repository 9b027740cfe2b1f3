package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. Updates are atomic, so
// a live exporter may read while the simulation writes.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 last-write-wins value stored as atomic bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed upper-bound buckets plus an
// overflow bucket. Bounds are set at registration and never change, so
// observation is a branch-light search plus one atomic add.
type Histogram struct {
	bounds []float64 // ascending upper bounds; counts has len(bounds)+1
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		want := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, want) {
			break
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-th quantile (q in [0, 1]) of the observed
// distribution from the bucket counts, with a deterministic
// interpolation rule:
//
//   - The target rank is q·count (continuous, not rounded).
//   - Observations in bucket i are assumed uniformly spread over
//     (lower_i, bounds[i]], where lower_i is the previous bound (0 for
//     the first bucket — bounds are assumed non-negative, which every
//     histogram in this codebase satisfies).
//   - The overflow bucket has no upper edge, so any rank landing there
//     reports the largest finite bound (a deliberate lower-bound
//     estimate rather than an invented extrapolation).
//
// Edge cases: an empty histogram reports 0; a histogram whose every
// observation sits in the overflow bucket reports the largest finite
// bound, or 0 when there are no bounds at all. q outside [0, 1] is
// clamped. The result is a pure function of the bucket snapshot, so
// exports built on it stay byte-identical across worker counts.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := 0.0
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			if i == len(h.bounds) {
				// Overflow bucket: no upper edge to interpolate toward.
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - cum) / n
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(hi-lo)
		}
		cum += n
	}
	// All mass below rank (q == 1 with rounding): the largest bound.
	return h.bounds[len(h.bounds)-1]
}

// Buckets returns (bounds, counts) snapshots; counts has one extra
// trailing overflow entry.
func (h *Histogram) Buckets() ([]float64, []uint64) {
	if h == nil {
		return nil, nil
	}
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return append([]float64{}, h.bounds...), counts
}

// Registry is a named collection of instruments. Registration
// (Counter/Gauge/Histogram lookup by name) takes a lock; the returned
// handles update lock-free, so hot paths resolve their instruments
// once up front. Export walks names in sorted order, making output
// deterministic.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. A nil registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given ascending upper bounds on first use (later calls may
// pass nil bounds). A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{
			bounds: append([]float64{}, bounds...),
			counts: make([]atomic.Uint64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// WriteJSON writes a deterministic JSON snapshot: instruments grouped
// by kind, names sorted.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()

	var b []byte
	b = append(b, `{"counters":{`...)
	for i, name := range sortedKeys(r.counters) {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, name)
		b = append(b, ':')
		b = strconv.AppendUint(b, r.counters[name].Value(), 10)
	}
	b = append(b, `},"gauges":{`...)
	for i, name := range sortedKeys(r.gauges) {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, name)
		b = append(b, ':')
		b = appendJSONFloat(b, r.gauges[name].Value())
	}
	b = append(b, `},"histograms":{`...)
	for i, name := range sortedKeys(r.hists) {
		if i > 0 {
			b = append(b, ',')
		}
		h := r.hists[name]
		bounds, counts := h.Buckets()
		b = strconv.AppendQuote(b, name)
		b = append(b, `:{"count":`...)
		b = strconv.AppendUint(b, h.Count(), 10)
		b = append(b, `,"sum":`...)
		b = appendJSONFloat(b, h.Sum())
		b = append(b, `,"p50":`...)
		b = appendJSONFloat(b, h.Quantile(0.50))
		b = append(b, `,"p95":`...)
		b = appendJSONFloat(b, h.Quantile(0.95))
		b = append(b, `,"p99":`...)
		b = appendJSONFloat(b, h.Quantile(0.99))
		b = append(b, `,"le":[`...)
		for j, bound := range bounds {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendJSONFloat(b, bound)
		}
		b = append(b, `],"buckets":[`...)
		for j, n := range counts {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, n, 10)
		}
		b = append(b, `]}`...)
	}
	b = append(b, "}}\n"...)
	_, err := w.Write(b)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// appendJSONFloat formats v compactly and JSON-legally (JSON has no
// NaN/Inf; they are emitted as null).
func appendJSONFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, "null"...)
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// String summarizes the registry (instrument counts), for debugging.
func (r *Registry) String() string {
	if r == nil {
		return "telemetry.Registry(nil)"
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return fmt.Sprintf("telemetry.Registry{counters: %d, gauges: %d, histograms: %d}",
		len(r.counters), len(r.gauges), len(r.hists))
}
