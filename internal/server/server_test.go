package server

import (
	"testing"

	"jumpstart/internal/jit"
	"jumpstart/internal/prof"
	"jumpstart/internal/workload"
)

// testSite builds a small site shared by the tests in this package.
func testSite(t testing.TB) *workload.Site {
	t.Helper()
	cfg := workload.DefaultSiteConfig()
	cfg.Units = 6
	cfg.HelpersPerUnit = 8
	cfg.EndpointsPerUnit = 4
	site, err := workload.GenerateSite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return site
}

// testConfig scales the virtual-time constants down so tests run fast.
func testConfig(mode Mode) Config {
	cfg := DefaultConfig()
	cfg.Mode = mode
	cfg.OfferedRPS = 150
	cfg.TickSeconds = 2
	cfg.ProfileWindow = 400
	cfg.SeederCollectWindow = 300
	cfg.InitCycles = 20e6 // ~6 s at the scaled clock
	cfg.UnitPreloadCycles = 100e3
	cfg.WarmupRequests = 6
	cfg.MicroSampleEvery = 8
	return cfg
}

func TestNoJumpStartLifecycle(t *testing.T) {
	site := testSite(t)
	s, err := New(site, testConfig(ModeNoJumpStart))
	if err != nil {
		t.Fatal(err)
	}
	if s.Ready() {
		t.Fatal("server ready before init")
	}
	ticks := s.Run(240)
	phases := map[Phase]bool{}
	for _, tk := range ticks {
		phases[tk.Phase] = true
	}
	// PhaseOptimizing may complete within a single tick on a small
	// site, so it need not be observed at a tick boundary.
	for _, want := range []Phase{PhaseInit, PhaseProfiling, PhaseServing} {
		if !phases[want] {
			t.Fatalf("phase %v never reached (saw %v)", want, phases)
		}
	}
	// Optimized translations must exist for hot functions.
	optimized := 0
	for _, fn := range site.Prog.Funcs {
		if tr := s.JIT().Active(fn.ID); tr != nil && tr.Tier == jit.TierOptimized {
			optimized++
		}
	}
	if optimized < 10 {
		t.Fatalf("only %d optimized translations", optimized)
	}
	if s.Faults() > 0 {
		t.Fatalf("faults = %d", s.Faults())
	}
	// Code size grows over time and is substantial by the end (Fig 1).
	if ticks[len(ticks)-1].CodeBytes == 0 {
		t.Fatal("no JITed code")
	}
	grew := false
	for i := 1; i < len(ticks); i++ {
		if ticks[i].CodeBytes > ticks[i-1].CodeBytes {
			grew = true
		}
		if ticks[i].CodeBytes < ticks[i-1].CodeBytes {
			t.Fatal("code size shrank")
		}
	}
	if !grew {
		t.Fatal("code size never grew")
	}
	// Latency improves from the first serving ticks to the end
	// (Figure 4a's wall-time-per-request metric): early requests pay
	// interpretation, unit loads and JIT compilation.
	first := -1
	for i, tk := range ticks {
		if tk.Completed > 0 {
			first = i
			break
		}
	}
	if first < 0 {
		t.Fatal("server never served")
	}
	early := avgLatencyRange(ticks, first, first+3)
	late := avgLatencyRange(ticks, len(ticks)*8/10, len(ticks))
	if early < 1.5*late {
		t.Fatalf("no warmup latency improvement: early %.2fms late %.2fms", early, late)
	}
}

func avgLatencyRange(ticks []TickStats, lo, hi int) float64 {
	if hi > len(ticks) {
		hi = len(ticks)
	}
	total, n := 0.0, 0
	for i := lo; i < hi; i++ {
		if ticks[i].Completed > 0 {
			total += ticks[i].AvgLatencyMS
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

func avgRPS(ticks []TickStats, fromFrac, toFrac float64) float64 {
	lo, hi := int(fromFrac*float64(len(ticks))), int(toFrac*float64(len(ticks)))
	if hi > len(ticks) {
		hi = len(ticks)
	}
	total, dur := 0.0, 0.0
	for i := lo; i < hi; i++ {
		total += float64(ticks[i].Completed)
		if i > 0 {
			dur += ticks[i].T - ticks[i-1].T
		}
	}
	if dur == 0 {
		return 0
	}
	return total / dur
}

var (
	cachedSite *workload.Site
	cachedPkg  *prof.Profile
)

// sharedSiteAndPackage memoizes the seeder run; the package is
// re-decoded per test so mutations cannot leak between tests.
func sharedSiteAndPackage(t testing.TB) (*workload.Site, *prof.Profile) {
	t.Helper()
	if cachedSite == nil {
		cachedSite = testSite(t)
		cachedPkg = runSeeder(t, cachedSite)
	}
	pkg, err := prof.Decode(cachedPkg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	return cachedSite, pkg
}

func runSeeder(t testing.TB, site *workload.Site) *prof.Profile {
	t.Helper()
	cfg := testConfig(ModeSeeder)
	s, err := New(site, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WarmToServing(3000); err != nil {
		t.Fatal(err)
	}
	pkg, ok := s.SeederPackage()
	if !ok {
		t.Fatal("seeder produced no package")
	}
	return pkg
}

func TestSeederProducesCompletePackage(t *testing.T) {
	_, pkg := sharedSiteAndPackage(t)

	if len(pkg.Funcs) < 20 {
		t.Fatalf("package covers %d funcs", len(pkg.Funcs))
	}
	if len(pkg.Units) == 0 {
		t.Fatal("no preload units")
	}
	if len(pkg.FuncOrder) == 0 {
		t.Fatal("no function order")
	}
	if len(pkg.Props) == 0 {
		t.Fatal("no property counters")
	}
	if len(pkg.CallPairs) == 0 {
		t.Fatal("no tier-2 call pairs")
	}
	vasmFuncs := 0
	for _, fp := range pkg.Funcs {
		if len(fp.VasmCounts) > 0 {
			vasmFuncs++
		}
	}
	if vasmFuncs == 0 {
		t.Fatal("no vasm counters harvested")
	}
	// The package survives a serialization round trip.
	decoded, err := prof.Decode(pkg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded.Funcs) != len(pkg.Funcs) {
		t.Fatal("round trip lost functions")
	}
}

func TestConsumerWarmsFasterThanNoJumpStart(t *testing.T) {
	site, pkg := sharedSiteAndPackage(t)

	consCfg := testConfig(ModeConsumer)
	consCfg.Package = pkg
	consCfg.UsePropertyOrder = true
	consCfg.JITOpts.UseVasmCounters = true
	consCfg.JITOpts.UseSeededCallGraph = true
	cons, err := New(site, consCfg)
	if err != nil {
		t.Fatal(err)
	}
	consTicks := cons.Run(240)

	noJS, err := New(site, testConfig(ModeNoJumpStart))
	if err != nil {
		t.Fatal(err)
	}
	noTicks := noJS.Run(240)

	steady := testConfig(ModeNoJumpStart).OfferedRPS
	lossCons := CapacityLoss(consTicks, steady)
	lossNo := CapacityLoss(noTicks, steady)
	if lossCons >= lossNo {
		t.Fatalf("Jump-Start capacity loss %.3f ≥ no-JS %.3f", lossCons, lossNo)
	}
	if cons.Faults() > 0 {
		t.Fatalf("consumer faults = %d", cons.Faults())
	}
	// The consumer must reach serving without a profiling phase.
	for _, tk := range consTicks {
		if tk.Phase == PhaseProfiling || tk.Phase == PhaseOptimizing {
			t.Fatalf("consumer entered %v", tk.Phase)
		}
	}
}

func TestConsumerRequiresPackage(t *testing.T) {
	site := testSite(t)
	cfg := testConfig(ModeConsumer)
	cfg.Package = nil
	if _, err := New(site, cfg); err == nil {
		t.Fatal("consumer without package accepted")
	}
	bad := DefaultConfig()
	bad.Cores = 0
	if _, err := New(site, bad); err == nil {
		t.Fatal("invalid hardware accepted")
	}
}

func TestMeasureSteadyConsumerBeatsNoJS(t *testing.T) {
	site, pkg := sharedSiteAndPackage(t)

	warmNoJS, err := New(site, testConfig(ModeNoJumpStart))
	if err != nil {
		t.Fatal(err)
	}
	if err := warmNoJS.WarmToServing(3000); err != nil {
		t.Fatal(err)
	}
	warmNoJS.Run(60) // equalize tail warmth with the consumer below
	noStats := warmNoJS.MeasureSteady(600)

	consCfg := testConfig(ModeConsumer)
	consCfg.Package = pkg
	consCfg.UsePropertyOrder = true
	consCfg.JITOpts.UseVasmCounters = true
	consCfg.JITOpts.UseSeededCallGraph = true
	cons, err := New(site, consCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cons.WarmToServing(3000); err != nil {
		t.Fatal(err)
	}
	cons.Run(60)
	consStats := cons.MeasureSteady(600)

	if consStats.Faults > 0 || noStats.Faults > 0 {
		t.Fatalf("faults: cons=%d no=%d", consStats.Faults, noStats.Faults)
	}
	if consStats.CapacityRPS <= 0 || noStats.CapacityRPS <= 0 {
		t.Fatal("zero capacity")
	}
	speedup := consStats.CapacityRPS/noStats.CapacityRPS - 1
	// Paper: +5.4% on the production workload. The test site is too
	// small for the layout effects to fully materialize (its hot code
	// fits in cache); the experiment harness uses a bigger site. Here
	// Jump-Start must at minimum not be meaningfully slower.
	if speedup < -0.02 {
		t.Fatalf("Jump-Start steady-state slower: %.2f%%", speedup*100)
	}
	if consStats.Mem.Fetches == 0 {
		t.Fatal("no micro-architecture data")
	}
}

func TestSeederExitsAndStopsServing(t *testing.T) {
	site := testSite(t)
	cfg := testConfig(ModeSeeder)
	s, err := New(site, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WarmToServing(3000); err != nil {
		t.Fatal(err)
	}
	if s.Phase() != PhaseExited {
		t.Fatalf("phase = %v", s.Phase())
	}
	tk := s.Tick()
	if tk.Completed != 0 {
		t.Fatal("exited seeder served requests")
	}
}

func TestModeAndPhaseStrings(t *testing.T) {
	if ModeSeeder.String() != "seeder" || ModeConsumer.String() != "consumer" {
		t.Fatal("mode names")
	}
	if PhaseOptimizing.String() != "optimizing" || PhaseExited.String() != "exited" {
		t.Fatal("phase names")
	}
}

func TestCapacityLossHelpers(t *testing.T) {
	ticks := []TickStats{
		{T: 1, Completed: 0},
		{T: 2, Completed: 50},
		{T: 3, Completed: 100},
	}
	loss := CapacityLoss(ticks, 100)
	// Ideal 300, served 0+50+100=150 → loss 0.5.
	if loss < 0.49 || loss > 0.51 {
		t.Fatalf("loss = %f", loss)
	}
	pts := NormalizedRPS(ticks, 100)
	if len(pts) != 3 || pts[2][1] != 1.0 || pts[0][1] != 0 {
		t.Fatalf("normalized = %v", pts)
	}
	if CapacityLoss(nil, 100) != 0 || CapacityLoss(ticks, 0) != 0 {
		t.Fatal("degenerate inputs")
	}
}

func TestJITOptionsAblationSwitchesWork(t *testing.T) {
	// Each ablation config must produce a working consumer.
	site, pkg := sharedSiteAndPackage(t)
	variants := []func(*Config){
		func(c *Config) {},
		func(c *Config) { c.JITOpts.UseVasmCounters = true },
		func(c *Config) { c.JITOpts.UseSeededCallGraph = true },
		func(c *Config) { c.UsePropertyOrder = true },
		func(c *Config) { c.JITOpts.FuncSort = jit.SortPH },
		func(c *Config) { c.JITOpts.FuncSort = jit.SortNone },
	}
	for i, v := range variants {
		cfg := testConfig(ModeConsumer)
		cfg.Package = pkg
		v(&cfg)
		s, err := New(site, cfg)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if err := s.WarmToServing(3000); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		st := s.MeasureSteady(200)
		if st.Faults > 0 {
			t.Fatalf("variant %d: faults", i)
		}
	}
}
