// Package core is the scenario plumbing that the experiments and the
// benchmark share: generate a site, calibrate its load, seed a profile
// package, and boot and measure servers for each Jump-Start variant.
package core

import (
	"fmt"

	"jumpstart/internal/prof"
	"jumpstart/internal/server"
	"jumpstart/internal/workload"
)

// Scenario bundles a generated website with a base server
// configuration, providing the seeder→consumer workflow in a few
// calls.
type Scenario struct {
	Site      *workload.Site
	ServerCfg server.Config
}

// NewScenario generates a site and pairs it with cfg.
func NewScenario(siteCfg workload.SiteConfig, serverCfg server.Config) (*Scenario, error) {
	site, err := workload.GenerateSite(siteCfg)
	if err != nil {
		return nil, err
	}
	return &Scenario{Site: site, ServerCfg: serverCfg}, nil
}

// SeedPackage runs a seeder server to completion and returns the
// collected profile package (Figure 3b).
func (sc *Scenario) SeedPackage() (*prof.Profile, error) {
	cfg := sc.ServerCfg
	cfg.Mode = server.ModeSeeder
	cfg.JITOpts.InstrumentOptimized = true
	s, err := server.New(sc.Site, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.WarmToServing(7200); err != nil {
		return nil, err
	}
	pkg, ok := s.SeederPackage()
	if !ok {
		return nil, fmt.Errorf("core: seeder produced no package")
	}
	return pkg, nil
}

// Variant selects the Jump-Start features for a server boot, mapping
// directly onto the paper's Figure 6 ablations.
type Variant struct {
	JumpStart       bool // consume a package at all
	VasmCounters    bool // Section V-A: seeded Vasm block counters
	SeededCallGraph bool // Section V-B: accurate tier-2 call graph
	PropertyOrder   bool // Section V-C: hotness-ordered object layout
}

// FullJumpStart enables everything (the paper's production setup).
func FullJumpStart() Variant {
	return Variant{JumpStart: true, VasmCounters: true, SeededCallGraph: true, PropertyOrder: true}
}

// ServerFor builds a server for the variant. pkg may be nil when
// JumpStart is false.
func (sc *Scenario) ServerFor(v Variant, pkg *prof.Profile) (*server.Server, error) {
	cfg := sc.ServerCfg
	if v.JumpStart {
		if pkg == nil {
			return nil, fmt.Errorf("core: variant requires a package")
		}
		cfg.Mode = server.ModeConsumer
		cfg.Package = pkg
		cfg.JITOpts.UseVasmCounters = v.VasmCounters
		cfg.JITOpts.UseSeededCallGraph = v.SeededCallGraph
		cfg.UsePropertyOrder = v.PropertyOrder
	} else {
		cfg.Mode = server.ModeNoJumpStart
		cfg.Package = nil
	}
	return server.New(sc.Site, cfg)
}

// WarmupRun boots a server for the variant and runs it for the given
// horizon, returning the tick series.
func (sc *Scenario) WarmupRun(v Variant, pkg *prof.Profile, horizon float64) ([]server.TickStats, error) {
	s, err := sc.ServerFor(v, pkg)
	if err != nil {
		return nil, err
	}
	return s.Run(horizon), nil
}

// SteadyState boots a server for the variant, warms it, and measures n
// steady-state requests.
func (sc *Scenario) SteadyState(v Variant, pkg *prof.Profile, n int) (server.SteadyStats, error) {
	s, err := sc.ServerFor(v, pkg)
	if err != nil {
		return server.SteadyStats{}, err
	}
	if err := s.WarmToServing(14400); err != nil {
		return server.SteadyStats{}, err
	}
	return s.MeasureSteady(n), nil
}

// Calibrate sizes the scenario's load to the site: it measures the
// fully-warm no-Jump-Start capacity, sets OfferedRPS to frac of it
// (the paper's servers run near "typical production load", which
// saturates them while warming but not when warm), and sizes
// ProfileWindow so the profiling phase spans roughly half of horizon —
// reproducing the long warmup the paper's Figure 2/4 curves show.
// It returns the measured warm capacity.
//
// Rationale for the load point: tier-1 profiling code runs at roughly
// half the optimized throughput (instrumented, unspecialized), so an
// offered load of ~0.85× warm capacity saturates the server during
// the whole interpret/profile period and releases it once optimized
// code is in place.
func (sc *Scenario) Calibrate(frac, horizon float64) (float64, error) {
	probeCfg := sc.ServerCfg
	probeCfg.Mode = server.ModeNoJumpStart
	probeCfg.ProfileWindow = 2000 // fast warm for the probe
	probe, err := server.New(sc.Site, probeCfg)
	if err != nil {
		return 0, err
	}
	if err := probe.WarmToServing(14400); err != nil {
		return 0, err
	}
	capacity := probe.MeasureSteady(800).CapacityRPS
	offered := frac * capacity
	sc.ServerCfg.OfferedRPS = offered
	// Completed rate while profiling ≈ tier-1 capacity ≈ 0.55×offered;
	// size the window so point A lands near half the horizon.
	sc.ServerCfg.ProfileWindow = int(0.55 * offered * 0.5 * horizon)
	if sc.ServerCfg.ProfileWindow < 1000 {
		sc.ServerCfg.ProfileWindow = 1000
	}
	sc.ServerCfg.SeederCollectWindow = sc.ServerCfg.ProfileWindow / 3
	// Functions below ~0.25% request share are "insufficiently
	// profiled": they stay on the live-JIT path after point C (both
	// for the no-Jump-Start server and for consumers), reproducing the
	// C→D tail at this site scale.
	sc.ServerCfg.OptimizeMinEntries = sc.ServerCfg.ProfileWindow / 400
	if sc.ServerCfg.OptimizeMinEntries < 20 {
		sc.ServerCfg.OptimizeMinEntries = 20
	}
	return capacity, nil
}
