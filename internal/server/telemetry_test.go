package server

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"jumpstart/internal/telemetry"
)

// TestTelemetryZeroPerturbation pins the telemetry layer's hard
// requirement: attaching a full observation set must leave the
// simulation byte-identical — every tick stat and the seeder's
// serialized package — because instruments only observe (no PRNG
// draws, no floating-point reordering, no control-flow changes).
func TestTelemetryZeroPerturbation(t *testing.T) {
	site := testSite(t)

	runSeeder := func(tel *telemetry.Set) ([]TickStats, []byte) {
		cfg := testConfig(ModeSeeder)
		cfg.Telem = tel
		s, err := New(site, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ticks []TickStats
		for i := 0; i < 3600 && s.Phase() != PhaseExited; i++ {
			ticks = append(ticks, s.Tick())
		}
		pkg, ok := s.SeederPackage()
		if !ok {
			t.Fatal("seeder did not finish")
		}
		return ticks, pkg.Encode()
	}

	offTicks, offPkg := runSeeder(nil)
	tel := telemetry.NewSet()
	onTicks, onPkg := runSeeder(tel)

	if !bytes.Equal(offPkg, onPkg) {
		t.Fatal("telemetry perturbed the seeder package bytes")
	}
	if len(offTicks) != len(onTicks) {
		t.Fatalf("tick counts differ: %d vs %d", len(offTicks), len(onTicks))
	}
	for i := range offTicks {
		if offTicks[i] != onTicks[i] {
			t.Fatalf("tick %d diverged:\n  off %+v\n  on  %+v", i, offTicks[i], onTicks[i])
		}
	}
	// And the observed run must actually have observed something.
	if tel.Metrics.Counter("server.requests_total").Value() == 0 {
		t.Fatal("no requests recorded")
	}
	if tel.Trace.Len() == 0 {
		t.Fatal("no events recorded")
	}
	if tel.Cycles.Total() == 0 {
		t.Fatal("no cycles attributed")
	}
}

// TestCycleConservation checks the attribution profiler's accounting
// invariant over full warmups in every mode: the per-phase buckets
// must sum to the server's independently accumulated total of charged
// cycles (small relative epsilon — the two sums accumulate identical
// terms in different orders).
func TestCycleConservation(t *testing.T) {
	site := testSite(t)

	check := func(name string, s *Server, tel *telemetry.Set) {
		t.Helper()
		got, want := tel.Cycles.Total(), s.TotalCycles()
		if want == 0 {
			t.Fatalf("%s: no cycles charged", name)
		}
		if rel := math.Abs(got-want) / want; rel > 1e-9 {
			t.Fatalf("%s: profile total %v != charged total %v (rel %v)",
				name, got, want, rel)
		}
	}

	// Seeder: full pipeline through package sealing.
	seedTel := telemetry.NewSet()
	scfg := testConfig(ModeSeeder)
	scfg.Telem = seedTel
	seeder, err := New(site, scfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := seeder.WarmToServing(7200); err != nil {
		t.Fatal(err)
	}
	check("seeder", seeder, seedTel)
	pkg, _ := seeder.SeederPackage()

	// No-Jump-Start: init + profiling + optimization + serving, then a
	// measurement pass (measurement cycles must stay conserved too).
	noTel := telemetry.NewSet()
	ncfg := testConfig(ModeNoJumpStart)
	ncfg.Telem = noTel
	noJS, err := New(site, ncfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := noJS.WarmToServing(7200); err != nil {
		t.Fatal(err)
	}
	noJS.MeasureSteady(50)
	check("nojumpstart", noJS, noTel)
	for _, b := range []telemetry.CycleBucket{
		telemetry.CycleInit, telemetry.CycleWarmup, telemetry.CycleTier1Compile,
		telemetry.CycleOptimize, telemetry.CycleInterp, telemetry.CycleJITExec,
	} {
		found := false
		for _, phase := range noTel.Cycles.Phases() {
			if noTel.Cycles.Bucket(phase, b) > 0 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("nojumpstart: bucket %v never charged", b)
		}
	}

	// Consumer: package load, bulk precompile, relocation, parallel
	// warmup — the coarse init-bucket path.
	conTel := telemetry.NewSet()
	ccfg := testConfig(ModeConsumer)
	ccfg.Package = pkg
	ccfg.Telem = conTel
	consumer, err := New(site, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := consumer.WarmToServing(7200); err != nil {
		t.Fatal(err)
	}
	check("consumer", consumer, conTel)
	for _, b := range []telemetry.CycleBucket{
		telemetry.CycleUnitLoad, telemetry.CycleOptimize, telemetry.CycleReloc,
	} {
		if conTel.Cycles.Bucket(PhaseInit.String(), b) == 0 {
			t.Errorf("consumer: init bucket %v never charged", b)
		}
	}

	// The folded export must reproduce the same total up to its
	// per-line integer rounding.
	var folded bytes.Buffer
	if err := noTel.Cycles.WriteFolded(&folded, "root"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(folded.String()), "\n")
	sum := 0.0
	for _, line := range lines {
		idx := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[idx+1:], 64)
		if err != nil {
			t.Fatalf("bad folded line %q: %v", line, err)
		}
		sum += v
	}
	if diff := math.Abs(sum - noJS.TotalCycles()); diff > float64(len(lines)) {
		t.Fatalf("folded sum %v vs charged %v: diff %v exceeds rounding slack",
			sum, noJS.TotalCycles(), diff)
	}
}
