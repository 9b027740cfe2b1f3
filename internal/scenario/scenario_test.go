package scenario

import (
	"math"
	"strings"
	"testing"
)

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{Steady, Diurnal, FlashCrowd, Failover} {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := ParseKind("hurricane"); err == nil {
		t.Fatal("ParseKind accepted an unknown kind")
	}
}

func TestNewValidation(t *testing.T) {
	horizon := 1200.0
	cases := map[string]func(*Config){
		"zero regions":  func(c *Config) { c.Regions = 0 },
		"bad amplitude": func(c *Config) { c.Kind = Diurnal; c.Amplitude = 1.5 },
		"zero period":   func(c *Config) { c.Kind = Diurnal; c.Period = 0 },
		"neg jitter":    func(c *Config) { c.Kind = Diurnal; c.PhaseJitter = -1 },
		"weak flash":    func(c *Config) { c.Kind = FlashCrowd; c.FlashMagnitude = 0.5 },
		"neg ramp":      func(c *Config) { c.Kind = FlashCrowd; c.FlashRamp = -1 },
		"flash region":  func(c *Config) { c.Kind = FlashCrowd; c.FlashRegion = 7 },
		"fail region":   func(c *Config) { c.Kind = Failover; c.FailRegion = -1 },
		"fail duration": func(c *Config) { c.Kind = Failover; c.FailDuration = 0 },
		"single region": func(c *Config) { c.Kind = Failover; c.Regions = 1 },
		"unknown kind":  func(c *Config) { c.Kind = numKinds },
	}
	for name, mut := range cases {
		cfg := DefaultConfig(Steady, 3, horizon)
		mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted an invalid config", name)
		} else if !strings.HasPrefix(err.Error(), "scenario: ") {
			t.Errorf("%s: error %q missing package prefix", name, err)
		}
	}
	for _, k := range []Kind{Steady, Diurnal, FlashCrowd, Failover} {
		if _, err := New(DefaultConfig(k, 3, horizon)); err != nil {
			t.Errorf("DefaultConfig(%v) rejected: %v", k, err)
		}
	}
}

func TestSteadyIsNull(t *testing.T) {
	e, err := New(DefaultConfig(Steady, 3, 1200))
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range []float64{0, 100, 599, 1200} {
		for r := 0; r < 3; r++ {
			if d := e.Demand(r, tm); d != 1 {
				t.Fatalf("steady Demand(%d, %g) = %g", r, tm, d)
			}
			if d := e.EffectiveDemand(r, tm); d != 1 {
				t.Fatalf("steady EffectiveDemand(%d, %g) = %g", r, tm, d)
			}
			if e.RegionDown(r, tm) {
				t.Fatal("steady scenario modulated something")
			}
		}
	}
}

func TestDiurnalWave(t *testing.T) {
	cfg := DefaultConfig(Diurnal, 3, 1200)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Bounded by the amplitude, and genuinely varying.
	min, max := math.Inf(1), math.Inf(-1)
	for tm := 0.0; tm <= 1200; tm += 5 {
		d := e.Demand(0, tm)
		if d < 1-cfg.Amplitude-1e-12 || d > 1+cfg.Amplitude+1e-12 {
			t.Fatalf("Demand(0, %g) = %g outside 1±%g", tm, d, cfg.Amplitude)
		}
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if max-min < cfg.Amplitude {
		t.Fatalf("diurnal wave barely moved: min=%g max=%g", min, max)
	}
	// Regions are phase-shifted: their demand curves must differ.
	same := true
	for tm := 0.0; tm <= 1200; tm += 50 {
		if math.Abs(e.Demand(0, tm)-e.Demand(1, tm)) > 1e-9 {
			same = false
			break
		}
	}
	if same {
		t.Fatal("regions 0 and 1 ride an identical wave despite the phase offset")
	}
}

func TestFlashCrowdEnvelope(t *testing.T) {
	cfg := DefaultConfig(FlashCrowd, 3, 1200)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := cfg.FlashStart - 1
	peak := cfg.FlashStart + cfg.FlashRamp + cfg.FlashHold/2
	after := cfg.FlashStart + cfg.FlashRamp + cfg.FlashHold + cfg.FlashDecay + 1
	if d := e.Demand(cfg.FlashRegion, before); d != 1 {
		t.Fatalf("demand before the flash = %g", d)
	}
	if d := e.Demand(cfg.FlashRegion, peak); math.Abs(d-cfg.FlashMagnitude) > 1e-9 {
		t.Fatalf("demand at the hold = %g, want %g", d, cfg.FlashMagnitude)
	}
	if d := e.Demand(cfg.FlashRegion, after); d != 1 {
		t.Fatalf("demand after the decay = %g", d)
	}
	mid := cfg.FlashStart + cfg.FlashRamp/2
	if d := e.Demand(cfg.FlashRegion, mid); d <= 1 || d >= cfg.FlashMagnitude {
		t.Fatalf("mid-ramp demand = %g, want strictly between 1 and %g", d, cfg.FlashMagnitude)
	}
	// Other regions stay flat; FlashRegion -1 hits everyone.
	if d := e.Demand((cfg.FlashRegion+1)%3, peak); d != 1 {
		t.Fatalf("untargeted region spiked: %g", d)
	}
	cfg.FlashRegion = -1
	all, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		if d := all.Demand(r, peak); math.Abs(d-cfg.FlashMagnitude) > 1e-9 {
			t.Fatalf("global flash missed region %d: %g", r, d)
		}
	}
}

func TestFailoverConservesDemand(t *testing.T) {
	cfg := DefaultConfig(Failover, 4, 1200)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	during := cfg.FailStart + cfg.FailDuration/2
	outside := cfg.FailStart - 1
	if !e.RegionDown(cfg.FailRegion, during) || e.RegionDown(cfg.FailRegion, outside) {
		t.Fatal("RegionDown window wrong")
	}
	if e.EffectiveDemand(cfg.FailRegion, during) != 0 {
		t.Fatal("dark region still has effective demand")
	}
	if !e.Absorbing((cfg.FailRegion+1)%4, during) {
		t.Fatal("survivor not marked absorbing")
	}
	if e.Absorbing(cfg.FailRegion, during) {
		t.Fatal("dark region marked absorbing")
	}
	for _, tm := range []float64{outside, during, cfg.FailStart, cfg.FailStart + cfg.FailDuration} {
		raw, eff := 0.0, 0.0
		for r := 0; r < 4; r++ {
			raw += e.Demand(r, tm)
			eff += e.EffectiveDemand(r, tm)
		}
		if math.Abs(raw-eff) > 1e-9 {
			t.Fatalf("t=%g: demand not conserved: raw=%g effective=%g", tm, raw, eff)
		}
	}
	// Survivors carry strictly more than their own demand mid-drill.
	surv := (cfg.FailRegion + 1) % 4
	if e.EffectiveDemand(surv, during) <= e.Demand(surv, during) {
		t.Fatal("survivor absorbed nothing during the drill")
	}
}

func TestEngineIsPureAndSeedSensitive(t *testing.T) {
	cfg := DefaultConfig(Diurnal, 3, 1200)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for tm := 0.0; tm <= 1200; tm += 7 {
		for r := 0; r < 3; r++ {
			if a.Demand(r, tm) != b.Demand(r, tm) {
				t.Fatalf("same config, different engine output at (%d, %g)", r, tm)
			}
		}
	}
	cfg.Seed = 99
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for tm := 0.0; tm <= 1200 && !diff; tm += 7 {
		if a.Demand(0, tm) != c.Demand(0, tm) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("phase jitter ignored the seed")
	}
}
