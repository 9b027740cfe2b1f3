package server

import (
	"testing"

	"jumpstart/internal/jit"
	"jumpstart/internal/telemetry"
)

// countingPager is a test Pager with a scripted outcome.
type countingPager struct {
	seconds float64
	ok      bool
	calls   int
}

func (p *countingPager) PageIn(fn string) (float64, bool) {
	p.calls++
	return p.seconds, p.ok
}

// pageInCycles sums the lazy-pagein bucket across phases.
func pageInCycles(tel *telemetry.Set) float64 {
	total := 0.0
	for _, phase := range tel.Cycles.Phases() {
		total += tel.Cycles.Bucket(phase, telemetry.CyclePageIn)
	}
	return total
}

// TestLazyConsumerServesImmediatelyAndPagesIn is the core lazy-warmup
// contract: a lazy consumer arms its hot functions instead of eagerly
// materializing the package, starts serving no later than the eager
// consumer, and installs optimized translations on demand as first
// calls arrive.
func TestLazyConsumerServesImmediatelyAndPagesIn(t *testing.T) {
	site, pkg := sharedSiteAndPackage(t)

	firstServing := func(ticks []TickStats) int {
		for i, tk := range ticks {
			if tk.Completed > 0 {
				return i
			}
		}
		return -1
	}

	eagerCfg := testConfig(ModeConsumer)
	eagerCfg.Package = pkg
	eager, err := New(site, eagerCfg)
	if err != nil {
		t.Fatal(err)
	}
	eagerTicks := eager.Run(240)
	if eager.LazyStats() != (LazyStats{}) {
		t.Fatalf("eager consumer has lazy stats: %+v", eager.LazyStats())
	}

	site2, pkg2 := sharedSiteAndPackage(t)
	lazyCfg := testConfig(ModeConsumer)
	lazyCfg.Package = pkg2
	lazyCfg.LazyWarmup = true
	lazy, err := New(site2, lazyCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Arming happens when init work is paid, inside the first ticks;
	// nothing may have paged in before any request was served.
	if ls := lazy.LazyStats(); ls != (LazyStats{}) {
		t.Fatalf("lazy stats before run: %+v", ls)
	}
	lazyTicks := lazy.Run(240)
	if ls := lazy.LazyStats(); ls.Armed == 0 {
		t.Fatal("lazy consumer armed no functions")
	}

	fe, fl := firstServing(eagerTicks), firstServing(lazyTicks)
	if fe < 0 || fl < 0 {
		t.Fatalf("a consumer never served (eager %d, lazy %d)", fe, fl)
	}
	// The lazy boot skips the eager preload/precompile/relocate bill,
	// so it cannot start serving later than the eager boot.
	if fl > fe {
		t.Fatalf("lazy consumer served at tick %d, after eager at %d", fl, fe)
	}
	ls := lazy.LazyStats()
	if ls.Paged == 0 {
		t.Fatal("no translations paged in")
	}
	if ls.Misses != 0 {
		t.Fatalf("pagerless page-ins missed: %+v", ls)
	}
	if ls.Paged > ls.Armed {
		t.Fatalf("paged %d > armed %d", ls.Paged, ls.Armed)
	}
	// Paged functions are really active at the optimized tier.
	optimized := 0
	for _, fn := range site2.Prog.Funcs {
		if tr := lazy.JIT().Active(fn.ID); tr != nil && tr.Tier == jit.TierOptimized {
			optimized++
		}
	}
	if optimized < ls.Paged {
		t.Fatalf("%d optimized translations active, want ≥ %d paged", optimized, ls.Paged)
	}
	if lazy.Faults() > 0 {
		t.Fatalf("lazy consumer faults = %d", lazy.Faults())
	}
}

// TestLazyPagerChargesAndCountsMisses wires a scripted pager: its
// fetch cost must land in the lazy-pagein cycle bucket, a miss must
// leave the function to the live-JIT path (no install, no crash), and
// each armed function must be tried at most once — a degraded store
// must not be hammered by retries.
func TestLazyPagerChargesAndCountsMisses(t *testing.T) {
	site, pkg := sharedSiteAndPackage(t)
	tel := telemetry.NewSet()
	cfg := testConfig(ModeConsumer)
	cfg.Package = pkg
	cfg.LazyWarmup = true
	pager := &countingPager{seconds: 2.5, ok: false} // 5e5 cycles
	cfg.Pager = pager
	cfg.Telem = tel
	s, err := New(site, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(240)
	ls := s.LazyStats()
	if pager.calls == 0 {
		t.Fatal("pager never consulted")
	}
	if ls.Paged != 0 {
		t.Fatalf("all-miss pager still paged %d in", ls.Paged)
	}
	if ls.Misses != pager.calls {
		t.Fatalf("misses %d != pager calls %d", ls.Misses, pager.calls)
	}
	// One attempt per armed function, never more.
	if pager.calls > ls.Armed {
		t.Fatalf("pager called %d times for %d armed functions", pager.calls, ls.Armed)
	}
	if got := pageInCycles(tel); got < float64(pager.calls)*5e5 {
		t.Fatalf("page-in bucket charged %g cycles, want ≥ %g", got, float64(pager.calls)*5e5)
	}
	if v := tel.Metrics.Counter("server.lazy_miss_total").Value(); int(v) != ls.Misses {
		t.Fatalf("miss counter %d != misses %d", v, ls.Misses)
	}
	// The server still warms up via live JIT despite a dead pager.
	if s.Faults() > 0 {
		t.Fatalf("faults = %d", s.Faults())
	}
}

// TestLazySucceedingPagerCounter checks the happy-path counter and
// that a working pager's cost is charged too.
func TestLazySucceedingPagerCounter(t *testing.T) {
	site, pkg := sharedSiteAndPackage(t)
	tel := telemetry.NewSet()
	cfg := testConfig(ModeConsumer)
	cfg.Package = pkg
	cfg.LazyWarmup = true
	pager := &countingPager{seconds: 0.5, ok: true} // 1e5 cycles
	cfg.Pager = pager
	cfg.Telem = tel
	s, err := New(site, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(240)
	ls := s.LazyStats()
	if ls.Paged == 0 || ls.Paged != pager.calls {
		t.Fatalf("paged %d with %d pager calls", ls.Paged, pager.calls)
	}
	if v := tel.Metrics.Counter("server.lazy_pagein_total").Value(); int(v) != ls.Paged {
		t.Fatalf("page-in counter %d != paged %d", v, ls.Paged)
	}
	if pageInCycles(tel) <= float64(pager.calls)*1e5 {
		// Install cost (relocation bytes) comes on top of fetch cost.
		t.Fatalf("page-in bucket %g missing install cost", pageInCycles(tel))
	}
}
