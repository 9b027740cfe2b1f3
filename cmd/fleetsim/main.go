// Command fleetsim simulates a fleet-wide continuous-deployment push
// (C1 → C2 → C3) with or without Jump-Start, printing the fleet
// capacity time series and the capacity-loss summary, plus an optional
// defective-package reliability injection (Section VI).
//
// Usage:
//
//	fleetsim                        # one push with Jump-Start
//	fleetsim -nojumpstart           # one push without
//	fleetsim -defects 0.5           # inject defective packages
//	fleetsim -transport             # fetch packages over the simulated network
//	fleetsim -transport -brownout-start 250 -brownout-seconds 1200 \
//	         -brownout-drop 0.97    # store brownout during the C3 fetch storm
//
// Multi-region sharded stores (replication, failover, seeder aggregation):
//
//	fleetsim -replicas 2                              # 2-way replicated per-region store shards
//	fleetsim -replicas 2 -regions 4 -store-nodes 3 \
//	         -aggregate 2 -propagate-every 60         # consensus packages + cross-region propagation
//
// Continuous deployment under code churn:
//
//	fleetsim -push-every 480                          # a push every 480 virtual seconds
//	fleetsim -push-every 480 -churn 0.1 \
//	         -remap-policy remap-tolerant             # carry packages across pushes via the remapper
//
// Standby warm pool and lazy package paging:
//
//	fleetsim -pool-size 32                            # C3 waves swap in pre-booted standbys
//	fleetsim -pool-size 32 -pool-backfill 0.05        # throttle pool re-admission
//	fleetsim -warmup-mode lazy                        # consumers serve immediately and
//	                                                  # page translations in on first call
//
// Dynamic traffic scenarios and heterogeneous hardware:
//
//	fleetsim -scenario diurnal                        # phase-shifted per-region demand waves
//	fleetsim -scenario flashcrowd                     # a spike ramps, holds, decays
//	fleetsim -scenario failover                       # one region goes dark mid-push;
//	                                                  # survivors absorb its demand
//	fleetsim -geometry mixed                          # two hardware classes; cross-geometry
//	                                                  # boots replay a stretched warmup curve
//
// Telemetry (all optional, zero simulation perturbation):
//
//	-trace out.jsonl        # fleet + warmup-measurement event trace
//	-metrics out.json       # metrics registry snapshot
//	-cycleprof out.folded   # warmup-measurement cycle profile
//	-spans boot.json        # causal boot-span trace; .json = Chrome
//	                        # trace_event (load in ui.perfetto.dev),
//	                        # any other extension = JSONL
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"jumpstart/internal/cluster"
	"jumpstart/internal/experiments"
	"jumpstart/internal/jumpstart"
	"jumpstart/internal/jumpstart/transport"
	"jumpstart/internal/netsim"
	"jumpstart/internal/obs"
	"jumpstart/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
}

// usageErr formats a flag-validation error with a usage pointer, so
// nonsense values exit non-zero with a hint instead of silently
// misbehaving deep in the simulation.
func usageErr(format string, args ...any) error {
	return fmt.Errorf(format+" (see fleetsim -h for usage)", args...)
}

// labConfig resolves the measurement configuration. It is a variable
// so the smoke test can substitute a micro-scale config; the curve
// measurement at real scale is far too slow for the test suite.
var labConfig = func(quick bool) experiments.Config {
	if quick {
		return experiments.Quick()
	}
	return experiments.Default()
}

// run executes the simulation; main is only flag-error plumbing so
// tests can drive the binary end to end in-process.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fleetsim", flag.ContinueOnError)
	noJS := fs.Bool("nojumpstart", false, "disable Jump-Start fleet-wide")
	defects := fs.Float64("defects", 0, "probability a seeder produces a crash-inducing package")
	quick := fs.Bool("quick", true, "use the reduced-scale measurement configuration")
	seconds := fs.Float64("seconds", 0, "fleet-sim duration (0 = 6x warmup horizon)")
	sinks := obs.NewSinks(fs)
	useTransport := fs.Bool("transport", false, "route package publishes/fetches through the networked store over the simulated fabric")
	netLatency := fs.Float64("net-latency", 0, "base one-way store RPC latency, virtual seconds")
	fetchBudget := fs.Float64("fetch-budget", 30, "per-boot fetch deadline budget, virtual seconds")
	brownStart := fs.Float64("brownout-start", 0, "store brownout start, virtual seconds (0 = none)")
	brownSecs := fs.Float64("brownout-seconds", 0, "store brownout duration")
	brownDrop := fs.Float64("brownout-drop", 0.95, "store RPC drop rate during the brownout")
	regions := fs.Int("regions", 0, "override the number of fleet regions (0 = measurement-config default)")
	replicas := fs.Int("replicas", 0, "K-way replication per store shard; > 0 routes packages through the multi-region sharded store hierarchy")
	storeNodes := fs.Int("store-nodes", 3, "store nodes per region shard (with -replicas)")
	aggregate := fs.Int("aggregate", 0, "publish one consensus package per N seeder outputs (with -replicas; 0 = every seeder publishes its own)")
	propagateEvery := fs.Float64("propagate-every", 60, "cross-region package propagation cadence, virtual seconds (with -replicas)")
	interLatency := fs.Float64("inter-latency", 0.3, "base one-way long-haul RPC latency between regions, virtual seconds (with -replicas)")
	pushEvery := fs.Float64("push-every", 0, "start a new deployment every N virtual seconds (0 = the single initial push only)")
	churn := fs.Float64("churn", 0, "code-churn mutation rate per push; > 0 measures the real remap hit rate and remapped warmup curve on a mutated site")
	remapPolicy := fs.String("remap-policy", "exact-only", "store compatibility policy at a push: exact-only | remap-tolerant")
	poolSize := fs.Int("pool-size", 0, "standby warm-pool size: pre-booted consumers swapped in during C3 waves (0 = off)")
	poolBackfill := fs.Float64("pool-backfill", 0, "max rebooted instances re-admitted to the pool per virtual second (0 = unthrottled)")
	warmupMode := fs.String("warmup-mode", "eager", "consumer warmup: eager | lazy (lazy boots serve immediately and replay the measured on-demand page-in curve)")
	scenarioName := fs.String("scenario", "steady", "dynamic traffic scenario: steady | diurnal | flashcrowd | failover")
	geometry := fs.String("geometry", "uniform", "fleet hardware mix: uniform | mixed (two geometry classes; cross-geometry boots replay a stretched Jump-Start curve)")
	geomStretch := fs.Float64("geometry-stretch", 1.25, "warmup slowdown factor for cross-geometry boots (with -geometry mixed)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	policy, err := jumpstart.ParseCompatPolicy(*remapPolicy)
	if err != nil {
		return usageErr("%v", err)
	}
	wmode, err := jumpstart.ParseWarmupMode(*warmupMode)
	if err != nil {
		return usageErr("%v", err)
	}
	kind, err := scenario.ParseKind(*scenarioName)
	if err != nil {
		return usageErr("%v", err)
	}
	if *geometry != "uniform" && *geometry != "mixed" {
		return usageErr("-geometry must be uniform or mixed, got %q", *geometry)
	}
	// Values first; then a flag that acts only through another is
	// rejected when set without it, instead of being silently dropped.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	brownout := *brownStart > 0 && *brownSecs > 0
	// The multi-region store rides on the same transport config.
	networked := *useTransport || brownout || *netLatency > 0 || *replicas > 0
	for _, c := range []struct {
		bad  bool
		name string
		msg  string
	}{
		{*defects < 0 || *defects > 1, "-defects", "must be in [0, 1]"},
		{*seconds < 0, "-seconds", "must be >= 0"},
		{*netLatency < 0, "-net-latency", "must be >= 0"},
		{*fetchBudget <= 0, "-fetch-budget", "must be > 0"},
		{*brownStart < 0, "-brownout-start", "must be >= 0"},
		{*brownSecs < 0, "-brownout-seconds", "must be >= 0"},
		{*brownDrop < 0 || *brownDrop > 1, "-brownout-drop", "must be in [0, 1]"},
		{*regions < 0, "-regions", "must be >= 0"},
		{*replicas < 0, "-replicas", "must be >= 0"},
		{*storeNodes <= 0, "-store-nodes", "must be > 0"},
		{*aggregate < 0, "-aggregate", "must be >= 0"},
		{*propagateEvery <= 0, "-propagate-every", "must be > 0"},
		{*interLatency < 0, "-inter-latency", "must be >= 0"},
		{*pushEvery < 0, "-push-every", "must be >= 0"},
		{*churn < 0 || *churn > 1, "-churn", "must be in [0, 1]"},
		{*poolSize < 0, "-pool-size", "must be >= 0"},
		{*poolBackfill < 0, "-pool-backfill", "must be >= 0"},
		{*geomStretch < 1, "-geometry-stretch", "must be >= 1"},
		{*brownStart > 0 && !brownout, "-brownout-start", "requires -brownout-seconds > 0"},
		{*brownSecs > 0 && !brownout, "-brownout-seconds", "requires -brownout-start > 0"},
		{set["brownout-drop"] && !brownout, "-brownout-drop", "requires -brownout-start and -brownout-seconds"},
		{set["fetch-budget"] && !networked, "-fetch-budget", "requires -transport, -net-latency, a brownout or -replicas"},
		{set["aggregate"] && *replicas == 0, "-aggregate", "requires -replicas > 0"},
		{set["store-nodes"] && *replicas == 0, "-store-nodes", "requires -replicas > 0"},
		{set["propagate-every"] && *replicas == 0, "-propagate-every", "requires -replicas > 0"},
		{set["inter-latency"] && *replicas == 0, "-inter-latency", "requires -replicas > 0"},
		{set["pool-backfill"] && *poolSize == 0, "-pool-backfill", "requires -pool-size > 0"},
		{set["geometry-stretch"] && *geometry != "mixed", "-geometry-stretch", "requires -geometry mixed"},
		// The first deployment carries no packages, so there is
		// nothing to remap until a push.
		{set["remap-policy"] && *pushEvery == 0, "-remap-policy", "requires -push-every > 0"},
		{*churn > 0 && *pushEvery == 0, "-churn", "requires -push-every > 0"},
	} {
		if c.bad {
			return usageErr("%s %s", c.name, c.msg)
		}
	}

	cfg := labConfig(*quick)
	// The curve-measurement servers and the fleet run strictly
	// sequentially here, so they can share one single-writer set.
	tel := sinks.NewSet()
	cfg.ServerCfg.Telem = tel
	fmt.Fprintln(stdout, "# measuring single-server warmup curves (detailed simulation)...")
	lab, err := experiments.NewLab(cfg)
	if err != nil {
		return err
	}
	jsCurve, noCurve, err := lab.FleetCurves()
	if err != nil {
		return err
	}

	fcfg := cfg.FleetCfg
	fcfg.CurveJumpStart = jsCurve
	fcfg.CurveNoJumpStart = noCurve
	fcfg.JumpStartEnabled = !*noJS
	fcfg.DefectRate = *defects
	fcfg.Telem = tel
	fcfg.PushEvery = *pushEvery
	fcfg.RemapPolicy = policy
	fcfg.PoolSize = *poolSize
	fcfg.PoolBackfillRate = *poolBackfill
	if wmode == jumpstart.WarmupLazy {
		fmt.Fprintln(stdout, "# measuring lazy warmup curve (on-demand page-ins over the fabric)...")
		lc, err := lab.MeasureLazyCurve(netsim.Config{BaseLatency: *netLatency})
		if err != nil {
			return err
		}
		fcfg.WarmupMode = wmode
		fcfg.CurveLazy = lc.Curve
		fmt.Fprintf(stdout, "# lazy boot: armed=%d paged=%d page-ins=%d misses=%d\n",
			lc.Stats.Armed, lc.Stats.Paged, lc.PageIns, lc.Misses)
	}
	if *churn > 0 {
		fmt.Fprintf(stdout, "# measuring remap hit rate and remapped warmup at churn rate %.2f...\n", *churn)
		cr, err := lab.MeasureChurn(*churn)
		if err != nil {
			return err
		}
		fcfg.CurveRemapped = cr.Curve
		fcfg.RemapHitRate = cr.Remap1.HitRate()
		fmt.Fprintf(stdout, "# remap: exact=%d renamed=%d fuzzy=%d dropped=%d (hit rate %.1f%%), remapped warmup loss=%.1f%%\n",
			cr.Remap1.Exact, cr.Remap1.Renamed, cr.Remap1.Fuzzy,
			cr.Remap1.Dropped+cr.Remap1.Ambiguous, cr.Remap1.HitRate()*100, cr.LossRemapped*100)
	} else if policy == jumpstart.RemapTolerant {
		// No mutated-site measurement requested: carry every package.
		fcfg.RemapHitRate = 1
	}
	if networked {
		net := netsim.Config{BaseLatency: *netLatency}
		if brownout {
			net.Faults = append(net.Faults,
				netsim.Brownout(*brownStart, *brownStart+*brownSecs, *brownDrop, *netLatency))
		}
		ccfg := transport.DefaultClientConfig()
		ccfg.Budget = *fetchBudget
		fcfg.Transport = &cluster.TransportConfig{Net: net, Client: ccfg}
	}
	if *regions > 0 {
		fcfg.Regions = *regions
	}
	dur := *seconds
	if dur == 0 {
		dur = 6 * cfg.Horizon
	}
	if kind != scenario.Steady {
		eng, err := scenario.New(scenario.DefaultConfig(kind, fcfg.Regions, dur))
		if err != nil {
			return err
		}
		fcfg.Scenario = eng
		// Boots that absorb a failed-over region's load warm under
		// extra traffic: every milestone lands ~1.5x later.
		fcfg.CurveFailover = jsCurve.Stretch(experiments.FailoverStretch)
	}
	if *geometry == "mixed" {
		fcfg.GeometryClasses = 2
		fcfg.CurveMismatch = jsCurve.Stretch(*geomStretch)
	}
	if *replicas > 0 {
		fcfg.Transport.Multi = &cluster.MultiConfig{
			NodesPerRegion:   *storeNodes,
			Replicas:         *replicas,
			PropagateEvery:   *propagateEvery,
			InterNet:         netsim.Config{BaseLatency: *interLatency},
			AggregateSeeders: *aggregate,
		}
	}
	fleet, err := cluster.NewFleet(fcfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# fleet: %d servers (%d regions x %d buckets), jumpstart=%v, defects=%.2f, scenario=%s, geometry=%s\n",
		fleet.Servers(), fcfg.Regions, fcfg.Buckets, !*noJS, *defects, kind, *geometry)
	fleet.StartDeployment()
	ticks := fleet.Run(dur)
	fmt.Fprintln(stdout, "t_seconds,capacity,down,warming,phase,packages,crashes,fallbacks")
	for i, tk := range ticks {
		if i%4 == 0 || i == len(ticks)-1 {
			fmt.Fprintf(stdout, "%.0f,%.3f,%d,%d,%d,%d,%d,%d\n",
				tk.T, tk.Capacity, tk.Down, tk.Warming, tk.Phase,
				tk.PkgsAvail, tk.Crashes, tk.Fallbacks)
		}
	}
	fmt.Fprintf(stdout, "# capacity loss over push window = %.2f%%; crashes = %d; fallbacks = %d\n",
		cluster.CapacityLoss(ticks, fcfg.TickSeconds)*100, fleet.Crashes(), fleet.Fallbacks())
	if *poolSize > 0 {
		ps := fleet.PoolStats()
		fmt.Fprintf(stdout, "# pool: size=%d avail=%d pending=%d drains=%d backfills=%d misses=%d pooled_boots=%d\n",
			ps.Size, ps.Avail, ps.Pending, ps.Drains, ps.Backfills, ps.Misses, ps.Drains)
	}
	if wmode == jumpstart.WarmupLazy {
		fmt.Fprintf(stdout, "# lazy boots = %d\n", fleet.LazyBoots())
	}
	if *replicas > 0 {
		propOK, propFail := fleet.Propagation()
		fmt.Fprintf(stdout, "# multistore: replica failovers = %d; consensus packages = %d; aggregated boots = %d; propagation ok/fail = %d/%d\n",
			fleet.Failovers(), fleet.ConsensusPackages(), fleet.AggregatedBoots(), propOK, propFail)
	}
	if kind != scenario.Steady {
		ss := fleet.ScenarioStats()
		fmt.Fprintf(stdout, "# scenario %s: demand-weighted loss = %.2f%%; demand peak/trough = %.2f/%.2f\n",
			kind, cluster.ScenarioCapacityLoss(ticks, fcfg.TickSeconds)*100,
			ss.PeakDemand, ss.TroughDemand)
		if kind == scenario.Failover {
			fmt.Fprintf(stdout, "# failover drill: dark ticks = %d; boots under absorbed load = %d\n",
				ss.DarkTicks, ss.FailoverBoots)
		}
	}
	if *geometry == "mixed" {
		fmt.Fprintf(stdout, "# geometry: census %v; cross-geometry boots = %d (stretch %.2fx)\n",
			fleet.GeometryCensus(), fleet.ScenarioStats().MismatchBoots, *geomStretch)
	}
	if *pushEvery > 0 {
		kept, lost := fleet.PackageChurn()
		fmt.Fprintf(stdout, "# pushes completed = %d (policy %s); remapped boots = %d; packages kept/lost across pushes = %d/%d\n",
			fleet.Revision()-1, policy, fleet.RemapBoots(), kept, lost)
	}
	for _, rc := range fleet.FallbackReasons() {
		fmt.Fprintf(stdout, "# fallback reason: %q x%d\n", rc.Reason, rc.Count)
	}

	return sinks.Write(tel, stdout)
}
