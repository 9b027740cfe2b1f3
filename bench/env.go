package main

import (
	"fmt"
	"time"

	"jumpstart/internal/cluster"
	"jumpstart/internal/core"
	"jumpstart/internal/experiments"
	"jumpstart/internal/jumpstart"
	"jumpstart/internal/jumpstart/transport"
	"jumpstart/internal/prof"
	"jumpstart/internal/release"
	"jumpstart/internal/workload"
)

// siteSeed pins site generation. The benchmark's --seed drives the
// traffic, fleet and network streams of every op, never the generated
// program: two sites drawn from different seeds differ by tens of
// percent in host time per op, which would drown every bound in
// run-to-run spread (see README, "What --seed varies").
const siteSeed = 1

// sizes fixes every size an op depends on. They are constants of the
// benchmark: identical on every commit, so host time per op is
// comparable between two commits.
type sizes struct {
	// quick is the small-site / high replay-hit regime used by
	// figures_quick and both fleet workloads; server is the
	// Default-size site (working set larger than the replay cache)
	// used by cold_warmup and jumpstart_serve.
	quick, server experiments.Config
	// jsSeconds is the virtual time jumpstart_serve runs after boot
	// (cold_warmup runs server.Horizon).
	jsSeconds float64
	// Fleet shapes: servers per (region, bucket) over 3 regions × 10
	// buckets, and the virtual seconds each fleet op runs.
	directPerBucket, storePerBucket int
	fleetSeconds                    float64
}

// fullSizes is the scale BENCHMARK.json's numbers are measured at.
// Horizons are shortened from experiments.Quick()/Default() so one op
// takes about a second on a 2-core box and a 10 s window holds enough
// ops for a stable median; site sizes (which set the replay hit
// ratio) are unchanged.
func fullSizes() sizes {
	q := experiments.Quick()
	q.Horizon, q.LongHorizon, q.SteadyRequests, q.PushInterval = 56, 112, 224, 210
	d := experiments.Default()
	d.Horizon = 250 // the shortest window in which a cold boot still reaches serving
	for _, c := range []*experiments.Config{&q, &d} {
		c.SiteCfg.Seed = siteSeed
		c.Workers = benchWorkers
	}
	return sizes{
		quick: q, server: d,
		jsSeconds:       150,
		directPerBucket: 2400, storePerBucket: 8,
		fleetSeconds: 3000,
	}
}

// smokeSizes is the -smoke scale: a tiny site and one op, so tests run
// every workload and the traced run in seconds.
func smokeSizes() sizes {
	s := fullSizes()
	for _, c := range []*experiments.Config{&s.quick, &s.server} {
		c.SiteCfg.Units, c.SiteCfg.HelpersPerUnit, c.SiteCfg.EndpointsPerUnit = 3, 4, 2
		// Host time follows simulated cycles (cores × clock × horizon),
		// not site size: load is calibrated to capacity.
		c.ServerCfg.Cores = 4
		c.ServerCfg.TickSeconds = 2
		c.ServerCfg.InitCycles = 5e6
		c.Horizon, c.LongHorizon, c.SteadyRequests, c.PushInterval = 36, 60, 60, 120
	}
	s.jsSeconds = 12
	s.directPerBucket, s.storePerBucket = 20, 2
	s.fleetSeconds = 1500
	return s
}

// env is what set-up hands to the ops: the generated site, the
// calibrated server configuration and the seeded profile package, plus
// the workload-specific extras. Ops only read it.
type env struct {
	cfg      experiments.Config // ServerCfg calibrated to the site
	sc       *core.Scenario
	pkg      *prof.Profile
	pkgBytes []byte

	// jumpstart_serve: the package published behind a transport server.
	tsrv *transport.Server

	// Fleets: measured warmup curves and the measured remap hit rate.
	curves   [2]cluster.WarmupCurve
	remapHit float64

	// Host seconds of the set-up stages (the core.* / workload.*
	// per-layer metrics).
	genSiteS, calibrateS, seedPkgS float64
}

// lab returns a fresh memo-less Lab over the environment: every caller
// gets zero memo cells, so nothing measured through it depends on what
// ran before.
func (e *env) lab(cfg experiments.Config) *experiments.Lab {
	sc := *e.sc
	sc.ServerCfg = cfg.ServerCfg
	return &experiments.Lab{Cfg: cfg, Scenario: &sc, Package: e.pkg}
}

// newEnv is the base set-up every workload shares — the same three
// steps as experiments.NewLab, timed one by one.
func newEnv(cfg experiments.Config) (*env, error) {
	e := &env{}
	t := time.Now()
	site, err := workload.GenerateSite(cfg.SiteCfg)
	if err != nil {
		return nil, err
	}
	e.genSiteS = time.Since(t).Seconds()
	e.sc = &core.Scenario{Site: site, ServerCfg: cfg.ServerCfg}

	t = time.Now()
	if _, err := e.sc.Calibrate(0.95, cfg.Horizon); err != nil {
		return nil, err
	}
	e.calibrateS = time.Since(t).Seconds()
	cfg.ServerCfg = e.sc.ServerCfg
	e.cfg = cfg

	t = time.Now()
	if e.pkg, err = e.sc.SeedPackage(); err != nil {
		return nil, err
	}
	e.seedPkgS = time.Since(t).Seconds()
	e.pkgBytes = e.pkg.Encode()
	return e, nil
}

// publish puts the seeded package behind a transport server
// (jumpstart_serve's extra set-up).
func (e *env) publish() {
	store := jumpstart.NewStore()
	e.tsrv = transport.NewServer(store, transport.DefaultChunkSize)
	e.tsrv.Publish(0, 0, 0, e.pkgBytes)
}

// measureFleetInputs measures what the fleet simulator replays: the
// two warmup curves, and the share of the package that survives a
// remap onto the next revision of the site (the fleets' extra set-up).
func (e *env) measureFleetInputs() error {
	js, no, err := e.lab(e.cfg).FleetCurves()
	if err != nil {
		return err
	}
	e.curves = [2]cluster.WarmupCurve{js, no}
	// Evolve the site one revision and remap a clone of the package
	// onto it.
	chain, err := release.NewChain(e.sc.Site, release.DefaultChurnConfig())
	if err != nil {
		return err
	}
	rev, err := chain.Next()
	if err != nil {
		return err
	}
	pkg, err := prof.Decode(e.pkgBytes)
	if err != nil {
		return fmt.Errorf("bench: package round-trip: %w", err)
	}
	pkg.Meta.Revision = int64(chain.Rev(0).Checksum)
	_, stats := prof.Remap(pkg, chain.Rev(0).Prog, rev.Prog, int64(rev.Checksum))
	e.remapHit = stats.HitRate()
	return nil
}
