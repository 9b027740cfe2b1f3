package cluster

import (
	"math"
	"testing"

	"jumpstart/internal/server"
)

// Synthetic curves: Jump-Start reaches steady in 100 s, no-Jump-Start
// in 500 s (roughly Figure 4b's shapes).
func jsCurve() WarmupCurve {
	return WarmupCurve{
		Times:  []float64{0, 30, 60, 100},
		Values: []float64{0.3, 0.7, 0.9, 1.0},
	}
}

func noJSCurve() WarmupCurve {
	return WarmupCurve{
		Times:  []float64{0, 100, 250, 400, 500},
		Values: []float64{0.05, 0.3, 0.6, 0.9, 1.0},
	}
}

func TestWarmupCurveAt(t *testing.T) {
	c := jsCurve()
	if c.At(-1) != 0 {
		t.Fatal("before start")
	}
	if c.At(0) != 0.3 {
		t.Fatal("at start")
	}
	if got := c.At(45); got <= 0.3 || got >= 0.9 {
		t.Fatalf("interpolation = %f", got)
	}
	if c.At(100) != 1.0 || c.At(9999) != 1.0 {
		t.Fatal("steady hold")
	}
	if c.SteadyValue() != 1.0 {
		t.Fatal("steady value")
	}
	empty := WarmupCurve{}
	if empty.At(5) != 1 || empty.SteadyValue() != 1 {
		t.Fatal("empty curve must be instant capacity")
	}
}

func TestTimeToFraction(t *testing.T) {
	c := noJSCurve()
	if got := c.TimeToFraction(0.9); got != 400 {
		t.Fatalf("t90 = %f", got)
	}
	if got := c.TimeToFraction(0.99); got != 500 {
		t.Fatalf("t99 = %f", got)
	}
}

func TestLifespanFractions(t *testing.T) {
	// Paper (§II-B): 13% to decent, 32% to peak with 75-minute pushes.
	// Our synthetic curve with a matching push interval should land in
	// the same ballpark shape: toPeak > toDecent, both well below 1.
	toDecent, toPeak := LifespanFractions(noJSCurve(), 1800)
	if toDecent <= 0 || toPeak <= toDecent || toPeak > 1 {
		t.Fatalf("fractions = %f, %f", toDecent, toPeak)
	}
	if got := toDecent; got < 0.1 || got > 0.4 {
		t.Fatalf("toDecent = %f, want paper-ish ballpark", got)
	}
	d, p := LifespanFractions(noJSCurve(), 0)
	if d != 0 || p != 0 {
		t.Fatal("zero interval")
	}
	// Tiny push interval saturates at 1.
	d, p = LifespanFractions(noJSCurve(), 100)
	if d != 1 || p != 1 {
		t.Fatalf("saturation: %f %f", d, p)
	}
}

func TestCurveFromTicks(t *testing.T) {
	ticks := []server.TickStats{
		{T: 10, Completed: 0},
		{T: 20, Completed: 500},
		{T: 30, Completed: 1000},
		{T: 40, Completed: 1500}, // above steady → clamped
	}
	c := CurveFromTicks(ticks, 100)
	if len(c.Times) != 4 {
		t.Fatalf("points = %d", len(c.Times))
	}
	if c.Values[0] != 0 || c.Values[1] != 0.5 || c.Values[2] != 1.0 || c.Values[3] != 1.0 {
		t.Fatalf("values = %v", c.Values)
	}
}

func fleetConfig(js bool) Config {
	cfg := DefaultConfig()
	cfg.CurveJumpStart = jsCurve()
	cfg.CurveNoJumpStart = noJSCurve()
	cfg.JumpStartEnabled = js
	cfg.ServersPerBucket = 8
	cfg.Regions = 2
	return cfg
}

func TestFleetSteadyWithoutDeployment(t *testing.T) {
	f, err := NewFleet(fleetConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	ticks := f.Run(100)
	for _, tk := range ticks {
		if tk.Capacity != 1.0 {
			t.Fatalf("idle fleet capacity = %f", tk.Capacity)
		}
	}
	if f.Servers() != 2*10*8 {
		t.Fatalf("servers = %d", f.Servers())
	}
}

func TestFleetDeploymentPhases(t *testing.T) {
	f, err := NewFleet(fleetConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	f.StartDeployment()
	ticks := f.Run(3000)
	phases := map[int]bool{}
	minCap := 1.0
	for _, tk := range ticks {
		phases[tk.Phase] = true
		if tk.Capacity < minCap {
			minCap = tk.Capacity
		}
	}
	if !phases[1] || !phases[2] || !phases[3] {
		t.Fatalf("phases seen = %v", phases)
	}
	if f.Deploying() {
		t.Fatal("deployment never completed")
	}
	// C3 restarts most of the fleet: capacity must dip meaningfully
	// but never to zero (phased deployment is the point).
	if minCap > 0.9 {
		t.Fatalf("no visible dip: %f", minCap)
	}
	if minCap < 0.2 {
		t.Fatalf("phased deployment should not crater capacity: %f", minCap)
	}
	// Everyone is warm at the end.
	if ticks[len(ticks)-1].Capacity < 0.999 {
		t.Fatalf("fleet did not re-warm: %f", ticks[len(ticks)-1].Capacity)
	}
	// Packages were published by C2 seeders for every pair.
	last := ticks[len(ticks)-1]
	if last.PkgsAvail < 2*10 {
		t.Fatalf("packages = %d, want ≥ one per (region,bucket)", last.PkgsAvail)
	}
}

func TestJumpStartReducesDeploymentCapacityLoss(t *testing.T) {
	run := func(js bool) float64 {
		f, err := NewFleet(fleetConfig(js))
		if err != nil {
			t.Fatal(err)
		}
		f.StartDeployment()
		ticks := f.Run(3000)
		return CapacityLoss(ticks, f.cfg.TickSeconds)
	}
	lossJS := run(true)
	lossNo := run(false)
	if lossJS >= lossNo {
		t.Fatalf("jump-start loss %.4f ≥ no-JS loss %.4f", lossJS, lossNo)
	}
	// Paper: 54.9% reduction in capacity loss. Require a substantial
	// reduction (>30%) given our synthetic curves.
	reduction := 1 - lossJS/lossNo
	if reduction < 0.3 {
		t.Fatalf("capacity-loss reduction only %.1f%%", reduction*100)
	}
}

func TestDefectivePackagesCrashAndDecay(t *testing.T) {
	cfg := fleetConfig(true)
	cfg.DefectRate = 1.0          // every seeder package is bad...
	cfg.ValidationCatchRate = 0.5 // ...validation catches half
	cfg.CrashDelay = 20
	cfg.MaxJSAttempts = 2
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.StartDeployment()
	ticks := f.Run(4000)
	if f.Crashes() == 0 {
		t.Fatal("defective packages never crashed anyone")
	}
	// Fallback engaged for servers that kept drawing bad packages.
	if f.Fallbacks() == 0 {
		t.Fatal("fallback never engaged")
	}
	// The fleet must still converge to full capacity: crash loops are
	// broken by randomized re-picks and the no-JS fallback (VI-A).
	if final := ticks[len(ticks)-1].Capacity; final < 0.999 {
		t.Fatalf("fleet stuck at %f capacity", final)
	}
	// Crashes must stop (exponential decay, not a persistent loop).
	lastCrash := 0
	for _, tk := range ticks {
		if tk.Crashes > lastCrash {
			lastCrash = tk.Crashes
		}
	}
	tail := ticks[len(ticks)-1]
	if tail.Crashes != lastCrash {
		t.Fatal("inconsistent crash accounting")
	}
	// No crashes in the last quarter of the run.
	quarter := ticks[3*len(ticks)/4]
	if tail.Crashes != quarter.Crashes {
		t.Fatalf("crashes still occurring late: %d -> %d", quarter.Crashes, tail.Crashes)
	}
}

func TestValidationReducesCrashes(t *testing.T) {
	run := func(catch float64) int {
		cfg := fleetConfig(true)
		cfg.DefectRate = 0.8
		cfg.ValidationCatchRate = catch
		cfg.CrashDelay = 20
		f, err := NewFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f.StartDeployment()
		f.Run(4000)
		return f.Crashes()
	}
	noValidation := run(0)
	fullValidation := run(1)
	if fullValidation != 0 {
		t.Fatalf("full validation still crashed %d", fullValidation)
	}
	if noValidation == 0 {
		t.Fatal("no-validation run never crashed (model inert)")
	}
}

func TestFleetConfigValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"zero regions":   func(c *Config) { c.Regions = 0 },
		"zero tick":      func(c *Config) { c.TickSeconds = 0 },
		"negative tick":  func(c *Config) { c.TickSeconds = -5 },
		"NaN tick":       func(c *Config) { c.TickSeconds = math.NaN() },
		"ragged base":    func(c *Config) { c.CurveJumpStart.Values = c.CurveJumpStart.Values[1:] },
		"ragged flavour": func(c *Config) { c.CurveLazy = WarmupCurve{Times: []float64{0, 1}, Values: []float64{1}} },
		"values only":    func(c *Config) { c.CurveAggregated = WarmupCurve{Values: []float64{1}} },
		"descending times": func(c *Config) {
			c.CurveRemapped = WarmupCurve{Times: []float64{0, 5, 3}, Values: []float64{0, 0.5, 1}}
		},
		"NaN time": func(c *Config) {
			c.CurveFailover = WarmupCurve{Times: []float64{0, math.NaN()}, Values: []float64{0, 1}}
		},
	} {
		cfg := fleetConfig(true)
		mutate(&cfg)
		if _, err := NewFleet(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
	// Repeated times are a step, not an error: At never divides by the
	// zero-width segment.
	cfg := fleetConfig(true)
	cfg.CurveJumpStart = WarmupCurve{Times: []float64{0, 10, 10, 20}, Values: []float64{0, 0.4, 0.8, 1}}
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatalf("stepped curve rejected: %v", err)
	}
	f.StartDeployment()
	for _, tk := range f.Run(1000) {
		if math.IsNaN(tk.Capacity) {
			t.Fatalf("stepped curve interpolated to NaN at t=%v", tk.T)
		}
	}
}

func TestFleetCapacityLossHelper(t *testing.T) {
	ticks := []FleetTick{{Capacity: 1}, {Capacity: 0.5}, {Capacity: 0.5}}
	loss := CapacityLoss(ticks, 1)
	if loss < 0.33 || loss > 0.34 {
		t.Fatalf("loss = %f", loss)
	}
	if CapacityLoss(nil, 1) != 0 {
		t.Fatal("empty")
	}
}

// TestTickParallelDeterminism is the fleet-level half of the parallel
// engine's contract: sharding per-server replay across any number of
// workers must reproduce the sequential tick series exactly — every
// field of every tick, including the floating-point capacity sum and
// the RNG-driven crash/fallback counters.
func TestTickParallelDeterminism(t *testing.T) {
	run := func(workers int) ([]FleetTick, int, int) {
		cfg := DefaultConfig()
		cfg.CurveJumpStart = jsCurve()
		cfg.CurveNoJumpStart = noJSCurve()
		// Exercise the RNG-drawing paths hard: defective packages,
		// validation rolls, crash loops, fallbacks.
		cfg.DefectRate = 0.5
		cfg.ValidationCatchRate = 0.5
		cfg.CrashDelay = 30
		cfg.Workers = workers
		f, err := NewFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f.StartDeployment()
		return f.Run(3000), f.Crashes(), f.Fallbacks()
	}
	base, crashes, fallbacks := run(1)
	if crashes == 0 {
		t.Fatal("scenario exercised no crashes; defect path untested")
	}
	for _, w := range []int{4, 0} { // 0 = one worker per CPU
		ticks, c, fb := run(w)
		if c != crashes || fb != fallbacks {
			t.Fatalf("workers=%d: crashes/fallbacks %d/%d, want %d/%d", w, c, fb, crashes, fallbacks)
		}
		if len(ticks) != len(base) {
			t.Fatalf("workers=%d: %d ticks, want %d", w, len(ticks), len(base))
		}
		for i := range base {
			if ticks[i] != base[i] {
				t.Fatalf("workers=%d: tick %d diverged:\n  seq %+v\n  par %+v", w, i, base[i], ticks[i])
			}
		}
	}
}
