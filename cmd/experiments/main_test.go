package main

import (
	"strings"
	"testing"

	"jumpstart/internal/experiments"
)

// microConfig shrinks the quick configuration to smoke-test scale; the
// full figure set at experiment scale takes minutes.
func microConfig(bool) experiments.Config {
	cfg := experiments.Quick()
	cfg.SiteCfg.Units = 3
	cfg.SiteCfg.HelpersPerUnit = 4
	cfg.SiteCfg.EndpointsPerUnit = 2
	cfg.ServerCfg.Cores = 2
	cfg.ServerCfg.InitCycles = 3e6
	cfg.Horizon = 90
	cfg.LongHorizon = 180
	cfg.SteadyRequests = 150
	cfg.PushInterval = 300
	cfg.FleetCfg.ServersPerBucket = 8
	return cfg
}

func TestRunSingleFigure(t *testing.T) {
	orig := labConfig
	labConfig = microConfig
	defer func() { labConfig = orig }()

	var out strings.Builder
	if err := run([]string{"-fig", "2", "-workers", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "## Figure 2:") {
		t.Fatalf("missing figure body:\n%s", s)
	}
	if !strings.Contains(s, "# capacity loss over the window") {
		t.Fatalf("missing summary:\n%s", s)
	}
}

func TestRunTune(t *testing.T) {
	orig := labConfig
	labConfig = microConfig
	defer func() { labConfig = orig }()

	var out strings.Builder
	if err := run([]string{"-tune", "-workers", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	// The beats-default property is pinned at quick scale by the
	// experiments package tests; at smoke scale the knobs can tie, so
	// only the table structure is asserted here.
	for _, want := range []string{
		"## Tune: SLO-driven policy search",
		"# recommendation: push=",
		"# tuned beats default p99 capacity loss on ",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q:\n%s", want, s)
		}
	}
}

// TestRunFlagValidation: nonsense flags must fail fast, before any
// measurement starts.
func TestRunFlagValidation(t *testing.T) {
	orig := labConfig
	labConfig = func(bool) experiments.Config {
		t.Fatal("validation must reject flags before the lab is built")
		return experiments.Quick()
	}
	defer func() { labConfig = orig }()

	cases := [][]string{
		{"-fig", "nonsense"},
		{"-sweep", "-3"},
		{"-tune", "-sweep", "2"},
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
