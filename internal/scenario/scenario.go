// Package scenario is the deterministic traffic-scenario engine: it
// modulates per-region request demand and availability over virtual
// time, so the fleet and server simulations can be driven by the
// conditions the paper's production fleet actually sees — diurnal
// swings, flash crowds, and regional failover drills — instead of a
// stationary load.
//
// An Engine is immutable after New: every query is a pure function of
// (region, time), with all per-region randomness (phase jitter)
// derived up front from the seed via workload.Fork. That is what lets
// the fleet simulator evaluate scenarios inside its parallel per-server
// phase without perturbing the byte-identical-at-any-worker-count
// contract.
package scenario

import (
	"fmt"
	"math"

	"jumpstart/internal/workload"
)

// Kind selects the scenario shape.
type Kind uint8

const (
	// Steady is the null scenario: demand 1 everywhere, forever.
	Steady Kind = iota
	// Diurnal is a per-region phase-shifted sinusoid on request rate —
	// regions peak at different wall-clock hours.
	Diurnal
	// FlashCrowd is a scheduled spike with configurable ramp, hold and
	// decay, hitting one region (or all of them).
	FlashCrowd
	// Failover is a regional drill: one region goes dark for a window
	// and its demand is redistributed onto the survivors in proportion
	// to their own demand.
	Failover
	numKinds
)

// String returns the flag-level name.
func (k Kind) String() string {
	switch k {
	case Steady:
		return "steady"
	case Diurnal:
		return "diurnal"
	case FlashCrowd:
		return "flashcrowd"
	case Failover:
		return "failover"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind parses the flag-level name.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "steady":
		return Steady, nil
	case "diurnal":
		return Diurnal, nil
	case "flashcrowd":
		return FlashCrowd, nil
	case "failover":
		return Failover, nil
	default:
		return 0, fmt.Errorf("scenario: unknown kind %q (want steady, diurnal, flashcrowd or failover)", s)
	}
}

// Config parameterizes one scenario. Fields irrelevant to the Kind are
// ignored; DefaultConfig fills a sensible schedule for a given horizon.
type Config struct {
	Kind    Kind
	Regions int
	Seed    uint64 // forks the per-region phase jitter

	// Diurnal wave. Period is the virtual-day length; Amplitude the
	// peak-to-mean swing in [0, 1); RegionPhase the deterministic
	// phase offset between consecutive regions (fraction of a period,
	// the "time zones"); PhaseJitter a per-region random extra phase
	// (fraction of a period) forked from Seed.
	Period      float64
	Amplitude   float64
	RegionPhase float64
	PhaseJitter float64

	// Flash crowd: demand ramps from 1 to Magnitude over FlashRamp
	// seconds starting at FlashStart, holds for FlashHold, and decays
	// back over FlashDecay. FlashRegion targets one region; -1 hits
	// every region at once.
	FlashStart     float64
	FlashRamp      float64
	FlashHold      float64
	FlashDecay     float64
	FlashMagnitude float64
	FlashRegion    int

	// Failover drill: FailRegion goes dark over [FailStart,
	// FailStart+FailDuration) and its demand lands on the survivors.
	FailRegion   int
	FailStart    float64
	FailDuration float64
}

// DefaultConfig returns a scenario of the given kind scheduled inside
// a run of the given horizon (virtual seconds): one full diurnal day
// per half-horizon, a flash crowd spiking through the middle third, a
// failover drill covering the middle half.
func DefaultConfig(kind Kind, regions int, horizon float64) Config {
	cfg := Config{
		Kind:    kind,
		Regions: regions,
		Seed:    1,

		Period:      horizon / 2,
		Amplitude:   0.4,
		RegionPhase: 1 / 3.0,
		PhaseJitter: 0.05,

		FlashStart:     horizon / 3,
		FlashRamp:      horizon / 24,
		FlashHold:      horizon / 8,
		FlashDecay:     horizon / 12,
		FlashMagnitude: 2.5,
		FlashRegion:    0,

		FailRegion:   0,
		FailStart:    horizon / 4,
		FailDuration: horizon / 2,
	}
	return cfg
}

// Engine evaluates one scenario. Immutable after New; safe for
// concurrent use.
type Engine struct {
	cfg   Config
	phase []float64 // per-region diurnal phase, fraction of a period
}

// New validates cfg and builds its engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Kind >= numKinds {
		return nil, fmt.Errorf("scenario: unknown kind %d", int(cfg.Kind))
	}
	if cfg.Regions <= 0 {
		return nil, fmt.Errorf("scenario: Regions must be positive, got %d", cfg.Regions)
	}
	switch cfg.Kind {
	case Diurnal:
		if cfg.Period <= 0 {
			return nil, fmt.Errorf("scenario: diurnal Period must be positive, got %g", cfg.Period)
		}
		if cfg.Amplitude < 0 || cfg.Amplitude >= 1 {
			return nil, fmt.Errorf("scenario: diurnal Amplitude must be in [0, 1), got %g (demand would go negative)", cfg.Amplitude)
		}
		if cfg.PhaseJitter < 0 {
			return nil, fmt.Errorf("scenario: PhaseJitter must be non-negative, got %g", cfg.PhaseJitter)
		}
	case FlashCrowd:
		if cfg.FlashMagnitude < 1 {
			return nil, fmt.Errorf("scenario: FlashMagnitude must be >= 1, got %g", cfg.FlashMagnitude)
		}
		if cfg.FlashRamp < 0 || cfg.FlashHold < 0 || cfg.FlashDecay < 0 {
			return nil, fmt.Errorf("scenario: flash ramp/hold/decay must be non-negative, got %g/%g/%g",
				cfg.FlashRamp, cfg.FlashHold, cfg.FlashDecay)
		}
		if cfg.FlashRegion < -1 || cfg.FlashRegion >= cfg.Regions {
			return nil, fmt.Errorf("scenario: FlashRegion %d out of range (want -1 for all, or 0..%d)",
				cfg.FlashRegion, cfg.Regions-1)
		}
	case Failover:
		if cfg.FailRegion < 0 || cfg.FailRegion >= cfg.Regions {
			return nil, fmt.Errorf("scenario: FailRegion %d out of range 0..%d", cfg.FailRegion, cfg.Regions-1)
		}
		if cfg.FailDuration <= 0 {
			return nil, fmt.Errorf("scenario: FailDuration must be positive, got %g", cfg.FailDuration)
		}
		if cfg.Regions < 2 {
			return nil, fmt.Errorf("scenario: failover needs at least 2 regions, got %d", cfg.Regions)
		}
	}
	e := &Engine{cfg: cfg, phase: make([]float64, cfg.Regions)}
	for r := range e.phase {
		// Deterministic per-region phase: the fixed time-zone ladder
		// plus a seed-forked jitter, both as fractions of a period.
		jit := float64(workload.Fork(cfg.Seed, uint64(r))>>11) / (1 << 53)
		e.phase[r] = float64(r)*cfg.RegionPhase + cfg.PhaseJitter*jit
	}
	return e, nil
}

// Kind returns the scenario shape.
func (e *Engine) Kind() Kind { return e.cfg.Kind }

// Config returns the validated configuration.
func (e *Engine) Config() Config { return e.cfg }

// flashEnvelope is the 0..1 trapezoid of the flash crowd at time t.
func (e *Engine) flashEnvelope(t float64) float64 {
	c := &e.cfg
	dt := t - c.FlashStart
	switch {
	case dt < 0:
		return 0
	case dt < c.FlashRamp:
		return dt / c.FlashRamp
	case dt < c.FlashRamp+c.FlashHold:
		return 1
	case dt < c.FlashRamp+c.FlashHold+c.FlashDecay:
		return 1 - (dt-c.FlashRamp-c.FlashHold)/c.FlashDecay
	default:
		return 0
	}
}

// Demand returns the region's raw demand multiplier at time t: 1 means
// the steady per-region load the fleet was sized for. It ignores
// failover redistribution — see EffectiveDemand for the demand a
// region's servers must actually absorb.
func (e *Engine) Demand(region int, t float64) float64 {
	c := &e.cfg
	switch c.Kind {
	case Diurnal:
		return 1 + c.Amplitude*math.Sin(2*math.Pi*(t/c.Period+e.phase[region]))
	case FlashCrowd:
		if c.FlashRegion < 0 || c.FlashRegion == region {
			return 1 + (c.FlashMagnitude-1)*e.flashEnvelope(t)
		}
		return 1
	default:
		return 1
	}
}

// RegionDown reports whether the region is dark at time t (failover
// drills only).
func (e *Engine) RegionDown(region int, t float64) bool {
	c := &e.cfg
	return c.Kind == Failover && region == c.FailRegion &&
		t >= c.FailStart && t < c.FailStart+c.FailDuration
}

// AnyRegionDown reports whether any region is dark at time t.
func (e *Engine) AnyRegionDown(t float64) bool {
	c := &e.cfg
	return c.Kind == Failover && t >= c.FailStart && t < c.FailStart+c.FailDuration
}

// Absorbing reports whether the region is up while some other region
// is dark — i.e. it is currently absorbing failed-over load.
func (e *Engine) Absorbing(region int, t float64) bool {
	return e.AnyRegionDown(t) && !e.RegionDown(region, t)
}

// EffectiveDemand returns the demand multiplier a region's servers
// must absorb at time t: its own Demand, plus — when other regions are
// dark — a share of the dark regions' demand proportional to its own.
// A dark region's effective demand is 0 (its traffic went elsewhere).
// Total demand is conserved: summing EffectiveDemand over all regions
// equals summing Demand, as long as at least one region is up.
func (e *Engine) EffectiveDemand(region int, t float64) float64 {
	if e.RegionDown(region, t) {
		return 0
	}
	own := e.Demand(region, t)
	if !e.AnyRegionDown(t) {
		return own
	}
	dark, alive := 0.0, 0.0
	for r := 0; r < e.cfg.Regions; r++ {
		d := e.Demand(r, t)
		if e.RegionDown(r, t) {
			dark += d
		} else {
			alive += d
		}
	}
	if dark == 0 || alive == 0 {
		return own
	}
	return own + dark*(own/alive)
}
