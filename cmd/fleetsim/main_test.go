package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jumpstart/internal/experiments"
)

// microConfig shrinks the quick configuration to smoke-test scale: the
// curve measurement alone takes tens of seconds at experiment scale.
func microConfig(bool) experiments.Config {
	cfg := experiments.Quick()
	cfg.SiteCfg.Units = 6
	cfg.SiteCfg.HelpersPerUnit = 6
	cfg.SiteCfg.EndpointsPerUnit = 3
	cfg.ServerCfg.OfferedRPS = 150
	cfg.ServerCfg.InitCycles = 20e6
	cfg.ServerCfg.MicroSampleEvery = 64
	cfg.Horizon = 40
	cfg.LongHorizon = 80
	cfg.SteadyRequests = 100
	cfg.FleetCfg.Regions = 1
	cfg.FleetCfg.Buckets = 2
	cfg.FleetCfg.ServersPerBucket = 3
	return cfg
}

func TestRunSmokeWithTelemetry(t *testing.T) {
	orig := labConfig
	labConfig = microConfig
	defer func() { labConfig = orig }()

	dir := t.TempDir()
	trace := filepath.Join(dir, "out.jsonl")
	metrics := filepath.Join(dir, "out.json")
	folded := filepath.Join(dir, "out.folded")

	var out strings.Builder
	err := run([]string{
		"-seconds", "60",
		"-trace", trace, "-metrics", metrics, "-cycleprof", folded,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "t_seconds,capacity") {
		t.Fatalf("missing CSV header:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "# capacity loss") {
		t.Fatalf("missing summary:\n%s", out.String())
	}

	mb, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
		Gauges   map[string]float64
	}
	if err := json.Unmarshal(mb, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["fleet.steps_total"] == 0 {
		t.Fatalf("fleet shard collectors recorded nothing: %s", mb)
	}
	if _, ok := snap.Gauges["fleet.capacity"]; !ok {
		t.Fatalf("missing fleet.capacity gauge: %s", mb)
	}

	tb, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tb), `"deployment-start"`) {
		t.Fatal("trace missing deployment-start event")
	}

	fb, err := os.ReadFile(folded)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(fb), "fleetsim;init;") {
		t.Fatalf("unexpected folded output:\n%s", fb)
	}
}

// TestRunMultiRegion smoke-tests the multi-region store flags: sharded
// per-region stores with 2-way replication, seeder aggregation, and
// cross-region propagation over the simulated long-haul links.
func TestRunMultiRegion(t *testing.T) {
	orig := labConfig
	labConfig = microConfig
	defer func() { labConfig = orig }()

	var out strings.Builder
	err := run([]string{"-seconds", "600", "-regions", "2", "-replicas", "2",
		"-store-nodes", "2", "-aggregate", "2", "-propagate-every", "30"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(2 regions x 2 buckets)") {
		t.Fatalf("-regions override not applied:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "# multistore: replica failovers = ") {
		t.Fatalf("missing multistore summary:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "crashes = 0") {
		t.Fatalf("multi-region run crashed servers:\n%s", out.String())
	}
}

// TestRunTransportBrownout smoke-tests the networked-store flags: a
// brownout over the fetch window must surface recorded fallback
// reasons in the summary without crashing anything.
func TestRunTransportBrownout(t *testing.T) {
	orig := labConfig
	labConfig = microConfig
	defer func() { labConfig = orig }()

	var out strings.Builder
	// The C3 fetch storm runs from ~t=305 (C1Hold 60 + C2Hold 240)
	// through the last wave; the brownout blankets it, while seeder
	// publishes (~t=260) land just before it starts.
	err := run([]string{
		"-seconds", "900", "-transport",
		"-brownout-start", "300", "-brownout-seconds", "600",
		"-brownout-drop", "0.99", "-fetch-budget", "8",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "crashes = 0") {
		t.Fatalf("brownout crashed servers:\n%s", out.String())
	}
	if !strings.Contains(out.String(), `# fallback reason: "fetch budget exhausted"`) {
		t.Fatalf("missing fallback-reason summary:\n%s", out.String())
	}
}

// TestRunSpansExport smoke-tests -spans end to end: the deployment's
// causal boot spans export in both formats, the summary line reports a
// clean conservation check, and the Chrome file parses as trace_event
// JSON with complete ("X") boot spans.
func TestRunSpansExport(t *testing.T) {
	orig := labConfig
	labConfig = microConfig
	defer func() { labConfig = orig }()

	dir := t.TempDir()
	chrome := filepath.Join(dir, "spans.json")
	jsonl := filepath.Join(dir, "spans.jsonl")

	var out strings.Builder
	// Nonzero fabric latency gives fetch spans real virtual-time
	// durations; zero-latency RPCs would degrade them to instants.
	if err := run([]string{"-seconds", "900", "-transport", "-net-latency", "0.02", "-spans", chrome}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "orphans — OK") {
		t.Fatalf("missing clean span-check summary:\n%s", out.String())
	}
	cb, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Name string  `json:"name"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(cb, &doc); err != nil {
		t.Fatalf("Chrome trace does not parse: %v", err)
	}
	var boots, fetches int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "boot" {
			boots++
		}
		if ev.Ph == "X" && ev.Name == "transport.fetch" {
			fetches++
		}
	}
	if boots == 0 || fetches == 0 {
		t.Fatalf("Chrome trace missing spans: boots=%d fetches=%d", boots, fetches)
	}

	out.Reset()
	if err := run([]string{"-seconds", "900", "-spans", jsonl}, &out); err != nil {
		t.Fatal(err)
	}
	jb, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(jb), `"name":"boot"`) || !strings.Contains(string(jb), `"parent":`) {
		t.Fatal("JSONL span trace missing boot spans or parent links")
	}
}

// TestRunPoolLazy smoke-tests the warm-pool and lazy-warmup flags
// together: the run must measure a lazy curve, report the pool flow
// accounting with actual standby swap-ins, and count lazy boots. A
// one-slot pool with a near-zero backfill rate guarantees both pool
// paths appear: the first C3 wave drains the standby, later waves miss
// the empty pool and boot on the lazy curve instead.
func TestRunPoolLazy(t *testing.T) {
	orig := labConfig
	labConfig = microConfig
	defer func() { labConfig = orig }()

	var out strings.Builder
	err := run([]string{"-seconds", "900", "-pool-size", "1",
		"-pool-backfill", "0.001", "-warmup-mode", "lazy"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"# lazy boot: armed=",
		"# pool: size=1 ",
		"# lazy boots = ",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "drains=0 ") {
		t.Fatalf("pool never drained:\n%s", s)
	}
	if strings.Contains(s, "# lazy boots = 0\n") {
		t.Fatalf("no lazy boots counted:\n%s", s)
	}
	if err := run([]string{"-warmup-mode", "bogus"}, &out); err == nil {
		t.Fatal("bogus -warmup-mode accepted")
	}
}

// TestRunScenarioFailover smoke-tests -scenario: the drill window must
// show up in the dark-tick accounting and the demand-weighted loss
// summary.
func TestRunScenarioFailover(t *testing.T) {
	orig := labConfig
	labConfig = microConfig
	defer func() { labConfig = orig }()

	var out strings.Builder
	err := run([]string{"-seconds", "900", "-regions", "2", "-scenario", "failover"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"scenario=failover",
		"# scenario failover: demand-weighted loss = ",
		"# failover drill: dark ticks = ",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "dark ticks = 0;") {
		t.Fatalf("drill never darkened a region:\n%s", s)
	}
}

// TestRunGeometryMixed smoke-tests -geometry mixed: two non-empty
// hardware classes and at least one cross-geometry boot replaying the
// stretched curve.
func TestRunGeometryMixed(t *testing.T) {
	orig := labConfig
	labConfig = microConfig
	defer func() { labConfig = orig }()

	var out strings.Builder
	err := run([]string{"-seconds", "600", "-geometry", "mixed"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "# geometry: census [") {
		t.Fatalf("missing geometry census:\n%s", s)
	}
	if strings.Contains(s, "cross-geometry boots = 0 ") {
		t.Fatalf("no cross-geometry boots recorded:\n%s", s)
	}
}

// TestRunFlagValidation: nonsense flag values must fail fast with a
// usage pointer, before any measurement starts.
func TestRunFlagValidation(t *testing.T) {
	orig := labConfig
	labConfig = func(bool) experiments.Config {
		t.Fatal("validation must reject flags before the lab is built")
		return experiments.Quick()
	}
	defer func() { labConfig = orig }()

	cases := [][]string{
		{"-pool-size", "-1"},
		{"-pool-backfill", "-0.5"},
		{"-defects", "1.5"},
		{"-seconds", "-10"},
		{"-fetch-budget", "0"},
		{"-brownout-drop", "2"},
		{"-regions", "-2"},
		{"-replicas", "-1"},
		{"-store-nodes", "0"},
		{"-propagate-every", "0"},
		{"-push-every", "-5"},
		{"-churn", "-0.1"},
		{"-geometry-stretch", "0.5"},
		{"-scenario", "hurricane"},
		{"-geometry", "triangular"},
		{"-remap-policy", "vibes"},
		// Flags that act only through another flag.
		{"-brownout-start", "300"},
		{"-brownout-seconds", "600"},
		{"-brownout-drop", "0.97"},
		{"-fetch-budget", "10"},
		{"-aggregate", "2"},
		{"-store-nodes", "3"},
		{"-propagate-every", "30"},
		{"-inter-latency", "0.5"},
		{"-pool-backfill", "0.05"},
		{"-geometry-stretch", "2"},
		{"-remap-policy", "remap-tolerant"},
		{"-churn", "0.1"},
	}
	for _, args := range cases {
		var out strings.Builder
		err := run(args, &out)
		if err == nil {
			t.Errorf("%v accepted", args)
			continue
		}
		if !strings.Contains(err.Error(), "usage") {
			t.Errorf("%v: error %q has no usage pointer", args, err)
		}
	}
}
