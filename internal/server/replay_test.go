package server

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"jumpstart/internal/microarch"
	"jumpstart/internal/prof"
	"jumpstart/internal/replay"
)

// replayVariant is one server flavour the replay cache must be
// invisible in.
type replayVariant struct {
	name string
	mode Mode
	lazy bool
}

// seederVariant is the production seeder; its package boots the
// consumer variants.
var seederVariant = replayVariant{name: "seeder", mode: ModeSeeder}

var replayVariants = []replayVariant{
	{name: "no-jumpstart", mode: ModeNoJumpStart},
	seederVariant,
	{name: "consumer", mode: ModeConsumer},
	{name: "consumer-lazy", mode: ModeConsumer, lazy: true},
}

// series is everything observable about one run: the tick series, the
// steady stats, cumulative counters and (seeder) the package bytes.
// Any divergence between replay-cache on and off must show up here.
type series struct {
	ticks  []TickStats
	steady SteadyStats
	total  float64
	mem    microarch.Stats
	pkg    []byte
	cache  *replay.Cache
}

// seederSeries memoizes the seeder's run per cache setting: it is both
// a variant under test and the source of the package the consumer
// variants boot from.
var seederSeries = map[bool]*series{}

// runSeries boots a server of the given variant, runs the warmup
// window, then (unless the seeder has exited) a steady measurement.
func runSeries(t *testing.T, v replayVariant, replayOn bool) *series {
	t.Helper()
	if v.mode == ModeSeeder {
		if r := seederSeries[replayOn]; r != nil {
			return r
		}
	}
	site := testSite(t)
	cfg := testConfig(v.mode)
	cfg.ReplayCache = replayOn
	cfg.LazyWarmup = v.lazy
	if v.mode == ModeConsumer {
		dec, err := prof.Decode(runSeries(t, seederVariant, replayOn).pkg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Package = dec
		cfg.UsePropertyOrder = true
	}
	s, err := New(site, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &series{ticks: s.Run(400), cache: s.ReplayCache()}
	if v.mode == ModeSeeder {
		p, ok := s.SeederPackage()
		if !ok {
			t.Fatal("no seeder package")
		}
		r.pkg = p.Encode()
		seederSeries[replayOn] = r
	} else {
		r.steady = s.MeasureSteady(200)
	}
	r.total, r.mem = s.TotalCycles(), s.Mem().Stats()
	return r
}

// TestReplayCacheDeterminism pins the tentpole's correctness contract:
// every simulation observable — the full tick series, steady-state
// stats including micro-architectural miss counts, total charged
// cycles and the seeder's package — is byte-identical with the replay
// cache on and off, in every server flavour. The cache is purely a
// host-side speedup.
func TestReplayCacheDeterminism(t *testing.T) {
	for _, v := range replayVariants {
		t.Run(v.name, func(t *testing.T) {
			on, off := runSeries(t, v, true), runSeries(t, v, false)
			if !reflect.DeepEqual(on.ticks, off.ticks) {
				for i := range on.ticks {
					if !reflect.DeepEqual(on.ticks[i], off.ticks[i]) {
						t.Fatalf("tick %d diverged:\n on: %+v\noff: %+v",
							i, on.ticks[i], off.ticks[i])
					}
				}
				t.Fatal("tick series diverged")
			}
			if !reflect.DeepEqual(on.steady, off.steady) {
				t.Fatalf("steady stats diverged:\n on: %+v\noff: %+v",
					on.steady, off.steady)
			}
			if on.total != off.total {
				t.Fatalf("total cycles diverged: on %v off %v", on.total, off.total)
			}
			if on.mem != off.mem {
				t.Fatalf("memory stats diverged:\n on: %+v\noff: %+v", on.mem, off.mem)
			}
			if !bytes.Equal(on.pkg, off.pkg) {
				t.Fatalf("seeder packages diverged: %d vs %d bytes", len(on.pkg), len(off.pkg))
			}
			c := on.cache
			if c == nil {
				t.Fatal("replay cache not installed")
			}
			// Every variant hits, the instrumented seeder included: its
			// counter-carrying tier-2 code poisons captures only once
			// installed, and its tier-1 code, which carries no
			// counters, replays through the optimizing window first.
			if c.Hits() == 0 {
				t.Fatal("replay cache never hit; determinism check is vacuous")
			}
			if c.Misses() == 0 {
				t.Fatal("replay cache never consulted")
			}
			t.Logf("%s: %d hits, %d misses, %d stale, %d entries",
				v.name, c.Hits(), c.Misses(), c.Stale(), c.Entries())
		})
	}
}

// TestSteadyRequestAllocRegression bounds per-request heap
// allocations on the fully-warm measurement path. The interpreter's
// own machinery (frames, stacks, iterators, argument passing) is
// allocation-free — pinned exactly by TestDispatchAllocFree in
// internal/interp — so what remains here is the simulated program's
// value allocations (the arrays/objects MiniHack code creates per
// request). Replay hits elide even those, so the cache must never
// allocate more than real execution.
func TestSteadyRequestAllocRegression(t *testing.T) {
	perReq := func(on bool) float64 {
		site := testSite(t)
		cfg := testConfig(ModeNoJumpStart)
		cfg.ReplayCache = on
		s, err := New(site, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WarmToServing(7200); err != nil {
			t.Fatal(err)
		}
		// Two rounds so the replay cache captures the measurement
		// stream's key space before the pinned window.
		s.MeasureSteady(400)
		s.MeasureSteady(400)
		stream := s.site.NewTraffic(s.cfg.Region, s.cfg.Bucket, measureSeed)
		return testing.AllocsPerRun(400, func() {
			s.measureOneFrom(stream)
		})
	}
	on := perReq(true)
	off := perReq(false)
	t.Logf("allocs/request: replay on %.1f, off %.1f", on, off)
	if on > off {
		t.Fatalf("replay cache adds allocations: on %.1f > off %.1f", on, off)
	}
	// Regression ceiling: the interpreter rewrite took the machinery to
	// zero; only workload value allocations remain, and objects come
	// from the heap's slabs. A jump past this bound means per-request
	// garbage crept back into the harness.
	if off > 16 {
		t.Fatalf("per-request allocations regressed: %.1f > 16", off)
	}

	// The profiling path: every hook also reaches the tier-1 collector.
	// The window never closes, so the server stays in PhaseProfiling
	// with the collector attached.
	cfg := testConfig(ModeNoJumpStart)
	cfg.ProfileWindow = math.MaxInt32
	s, err := New(testSite(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s.phase != PhaseProfiling && s.now < 7200 {
		s.Tick()
	}
	if s.col == nil {
		t.Fatalf("no collector attached in phase %v", s.phase)
	}
	// Two rounds so the collector's lazily grown tables take in the
	// measurement stream's key space before the pinned window.
	for round := 0; round < 2; round++ {
		stream := s.site.NewTraffic(s.cfg.Region, s.cfg.Bucket, measureSeed)
		for i := 0; i < 400; i++ {
			s.measureOneFrom(stream)
		}
	}
	stream := s.site.NewTraffic(s.cfg.Region, s.cfg.Bucket, measureSeed)
	profiling := testing.AllocsPerRun(400, func() {
		s.measureOneFrom(stream)
	})
	t.Logf("allocs/request while profiling: %.1f", profiling)
	// Ceiling: the count measured once objects came from slabs.
	if profiling > 16 {
		t.Fatalf("profiling-path allocations regressed: %.1f > 16", profiling)
	}
}

// TestReplayCacheInvalidation checks the invalidation rule at server
// scale: a compile drops the entries that depend on the compiled
// function — and only those. (The rule itself, dependency by
// dependency, is pinned on a tiny program in internal/replay.)
func TestReplayCacheInvalidation(t *testing.T) {
	site := testSite(t)
	cfg := testConfig(ModeNoJumpStart)
	s, err := New(site, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WarmToServing(7200); err != nil {
		t.Fatal(err)
	}
	s.MeasureSteady(100)
	c := s.ReplayCache()
	before := c.Entries()
	if before == 0 {
		t.Fatal("no entries captured during steady measurement")
	}
	// An endpoint is only ever entered at the top of a request, so no
	// entry's subtree contains it: recompiling one leaves standing
	// everything but the entries charged through its old translation.
	stale0 := c.Stale()
	if _, err := s.JIT().CompileLive(site.Endpoints[0].Fn); err != nil {
		t.Skipf("code cache full, cannot force a placement: %v", err)
	}
	s.MeasureSteady(1)
	dropped := int(c.Stale() - stale0)
	t.Logf("%d entries, %d dropped by the endpoint's recompile, %d after", before, dropped, c.Entries())
	if got := c.Entries(); got < before-dropped {
		t.Fatalf("%d of %d entries left after %d stale drops: entries vanished "+
			"without a changed dependency", got, before, dropped)
	}
	if dropped > before/2 {
		t.Fatalf("one endpoint's recompile dropped %d of %d entries", dropped, before)
	}

	// Re-activating a function stamps it without changing what runs.
	// Some function must be one that captured subtrees entered, and
	// stamping it must cost exactly those entries their next lookup.
	hit := false
	for _, fn := range site.Prog.Funcs {
		stale0 = c.Stale()
		s.JIT().SetActive(fn.ID, s.JIT().Active(fn.ID))
		s.MeasureSteady(1)
		if c.Stale() > stale0 {
			hit = true
			break
		}
	}
	if !hit {
		t.Fatal("no function's change ever staled an entry")
	}
}

// TestReplayHitsWhileOptimizing covers Figure 1's A→C window on a
// cold server: profiling has stopped and tier-2 compiles in the
// background while requests still run tier-1 code. That code carries
// no counters, so its captures are clean and later calls replay them.
func TestReplayHitsWhileOptimizing(t *testing.T) {
	s, err := New(testSite(t), testConfig(ModeNoJumpStart))
	if err != nil {
		t.Fatal(err)
	}
	c := s.ReplayCache()
	var hits uint64
	ticks := 0
	for s.phase != PhaseServing && s.now < 7200 {
		before, was := c.Hits(), s.phase
		s.Tick()
		// Only ticks that begin and end in the window count.
		if was == PhaseOptimizing && s.phase == PhaseOptimizing {
			hits += c.Hits() - before
			ticks++
		}
	}
	if ticks == 0 {
		t.Fatalf("no whole tick in %v before phase %v", PhaseOptimizing, s.phase)
	}
	t.Logf("%d replay hits over %d optimizing ticks", hits, ticks)
	if hits == 0 {
		t.Fatal("no replay hit while optimizing")
	}
}
