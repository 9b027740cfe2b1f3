// Package cluster simulates the fleet-scale side of the paper: data
// centers with semantic buckets, the C1/C2/C3 phased continuous
// deployment, capacity-loss accounting during pushes, and the
// Section VI reliability dynamics (defective packages, crash loops,
// randomized package selection, no-Jump-Start fallback).
//
// The fleet simulator does not execute bytecode; each server replays a
// *warmup curve* measured by the detailed single-server simulation
// (internal/server), which keeps thousand-server deployments cheap
// while grounding their behaviour in the mechanism-level model.
package cluster

import (
	"fmt"
	"sort"

	"jumpstart/internal/server"
)

// WarmupCurve maps server uptime (seconds) to normalized serving
// capacity in [0, 1]. Curves are piecewise linear and monotone time
// grids; values may dip and rise (real warmups are not monotone).
type WarmupCurve struct {
	Times  []float64
	Values []float64
}

// At interpolates the capacity at the given uptime; before the first
// point it is 0, after the last it holds the final value.
func (c WarmupCurve) At(uptime float64) float64 {
	n := len(c.Times)
	if n == 0 {
		return 1 // no curve: instant capacity
	}
	if uptime <= c.Times[0] {
		if uptime < c.Times[0] {
			return 0
		}
		return c.Values[0]
	}
	if uptime >= c.Times[n-1] {
		return c.Values[n-1]
	}
	i := sort.SearchFloat64s(c.Times, uptime)
	// c.Times[i-1] < uptime <= c.Times[i]
	t0, t1 := c.Times[i-1], c.Times[i]
	v0, v1 := c.Values[i-1], c.Values[i]
	frac := (uptime - t0) / (t1 - t0)
	return v0 + frac*(v1-v0)
}

// SteadyValue returns the curve's final capacity.
func (c WarmupCurve) SteadyValue() float64 {
	if len(c.Values) == 0 {
		return 1
	}
	return c.Values[len(c.Values)-1]
}

// TimeToFraction returns the first uptime at which capacity reaches
// frac of the steady value, or the last time if never.
func (c WarmupCurve) TimeToFraction(frac float64) float64 {
	target := frac * c.SteadyValue()
	for i, v := range c.Values {
		if v >= target {
			return c.Times[i]
		}
	}
	if len(c.Times) == 0 {
		return 0
	}
	return c.Times[len(c.Times)-1]
}

// Stretch returns the curve slowed down by factor: the same capacity
// levels, each reached factor× later. The standard model for warming
// under extra load (absorbed failover traffic) or on weaker hardware
// than the curve was measured on (cross-geometry package consumption).
func (c WarmupCurve) Stretch(factor float64) WarmupCurve {
	out := WarmupCurve{
		Times:  make([]float64, len(c.Times)),
		Values: append([]float64(nil), c.Values...),
	}
	for i, t := range c.Times {
		out.Times[i] = t * factor
	}
	return out
}

// flavour names what a booting server warms up on. The Jump-Start
// flavours are ordered by curve precedence, lowest first: when several
// apply to one boot, the highest with a configured curve is replayed.
type flavour uint8

const (
	flExact      flavour = iota // package seeded on this revision and geometry
	flLazy                      // lazy warmup mode: serve at once, page translations in
	flRemapped                  // package carried across a push by the remapper
	flMismatch                  // package seeded on another geometry class
	flAggregated                // consensus package merged from several seeders
	flFailover                  // region absorbing a failed-over region's load
	flPooled                    // standby swapped in from the warm pool
	flCold                      // no Jump-Start
	numFlavours
)

// flavourCounters names the telemetry counter behind each flavour that
// Fleet.bookFlavours books.
var flavourCounters = [numFlavours]string{
	flLazy:       "fleet.boots_lazy_total",
	flRemapped:   "fleet.boots_remapped_total",
	flMismatch:   "fleet.boots_mismatch_total",
	flAggregated: "fleet.boots_aggregated_total",
}

// flavourSet marks the flavours that apply to one boot.
type flavourSet [numFlavours]bool

// curveTable holds the configured warmup curve per flavour; nil means
// the flavour has no curve of its own and falls through to the next
// one down.
type curveTable [numFlavours]*WarmupCurve

// resolveCurves builds the table from the Config.Curve* fields,
// rejecting curves WarmupCurve.At cannot interpolate. Exact, cold and
// pooled boots always have a curve (an empty one is instant capacity);
// the other flavours only when theirs is configured.
func resolveCurves(cfg *Config) (curveTable, error) {
	var t curveTable
	for _, e := range [...]struct {
		fl     flavour
		name   string
		curve  *WarmupCurve
		always bool
	}{
		{flExact, "CurveJumpStart", &cfg.CurveJumpStart, true},
		{flCold, "CurveNoJumpStart", &cfg.CurveNoJumpStart, true},
		{flPooled, "CurvePooled", &cfg.CurvePooled, true},
		{flLazy, "CurveLazy", &cfg.CurveLazy, false},
		{flRemapped, "CurveRemapped", &cfg.CurveRemapped, false},
		{flMismatch, "CurveMismatch", &cfg.CurveMismatch, false},
		{flAggregated, "CurveAggregated", &cfg.CurveAggregated, false},
		{flFailover, "CurveFailover", &cfg.CurveFailover, false},
	} {
		c := e.curve
		if len(c.Times) != len(c.Values) {
			return t, fmt.Errorf("cluster: %s has %d times but %d values",
				e.name, len(c.Times), len(c.Values))
		}
		for i := 1; i < len(c.Times); i++ {
			if !(c.Times[i] >= c.Times[i-1]) {
				return t, fmt.Errorf("cluster: %s times not ascending at index %d", e.name, i)
			}
		}
		if e.always || len(c.Times) > 0 {
			t[e.fl] = c
		}
	}
	return t, nil
}

// choose returns the highest-precedence flavour in applies that has a
// configured curve. It has no side effects: booking what the boot
// matched is Fleet.bookFlavours' job.
func (t *curveTable) choose(applies flavourSet) flavour {
	for fl := flFailover; fl > flExact; fl-- {
		if applies[fl] && t[fl] != nil {
			return fl
		}
	}
	return flExact
}

// CurveFromTicks converts a detailed-server tick series into a warmup
// curve normalized to steadyRPS.
func CurveFromTicks(ticks []server.TickStats, steadyRPS float64) WarmupCurve {
	c := WarmupCurve{}
	prev := 0.0
	for _, t := range ticks {
		dt := t.T - prev
		prev = t.T
		if dt <= 0 || steadyRPS <= 0 {
			continue
		}
		v := float64(t.Completed) / dt / steadyRPS
		if v > 1 {
			v = 1
		}
		c.Times = append(c.Times, t.T)
		c.Values = append(c.Values, v)
	}
	return c
}

// LifespanFractions computes the Section II-B statistics: with a
// continuous-deployment push every pushInterval seconds, the fraction
// of a server's lifespan spent before reaching 90% capacity ("until
// optimized code was produced and decent performance was reached") and
// before reaching ~99% ("until reaching peak performance").
func LifespanFractions(c WarmupCurve, pushInterval float64) (toDecent, toPeak float64) {
	if pushInterval <= 0 {
		return 0, 0
	}
	return min(1, c.TimeToFraction(0.90)/pushInterval), min(1, c.TimeToFraction(0.99)/pushInterval)
}
