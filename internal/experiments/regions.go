package experiments

import (
	"fmt"
	"io"

	"jumpstart/internal/cluster"
	"jumpstart/internal/core"
	"jumpstart/internal/jumpstart"
	"jumpstart/internal/jumpstart/transport"
	"jumpstart/internal/netsim"
	"jumpstart/internal/parallel"
	"jumpstart/internal/prof"
	"jumpstart/internal/server"
)

// regionsSeeders is how many independent seeders feed the consensus
// merge in the single-server half of the regions experiment.
const regionsSeeders = 3

// RegionsSeeder is one contributing seeder: its traffic seed, how many
// requests its profile covers, and the warmup loss of a consumer
// booted from its package alone.
type RegionsSeeder struct {
	Seed     uint64
	Requests int64
	Loss     float64
}

// RegionsPoint is one multi-region fleet run.
type RegionsPoint struct {
	Name      string
	Aggregate bool    // seeder aggregation on
	Loss      float64 // fleet capacity loss over the window
	Crashes   int
	Fallbacks int
	Failovers int // replica legs that failed before a fetch was served
	Consensus int // consensus packages published
	AggBoots  int // boots from consensus packages
	PropOK    int // cross-region transfers completed
	PropFail  int // transfers the long-haul network defeated
	Exhausted int // fallbacks with the failover-exhausted reason
}

// RegionsResult is the multi-region store + seeder aggregation
// experiment.
type RegionsResult struct {
	Seeders  []RegionsSeeder
	AggStats prof.AggregateStats
	// Aggregated-vs-best-single-seeder comparison: warmup loss and
	// steady-state capacity of a consumer booted from the consensus
	// package vs from the best individual seeder's package.
	LossBestSingle   float64
	LossAggregated   float64
	SteadyBestSingle float64 // RPS
	SteadyAggregated float64 // RPS
	CurveAggregated  cluster.WarmupCurve
	Points           []RegionsPoint
}

// Regions measures what multi-region sharded stores with seeder
// aggregation buy. Cached after the first call.
func (l *Lab) Regions() (RegionsResult, error) {
	return l.regionsRes.get(struct{}{}, l.regions)
}

func (l *Lab) regions() (RegionsResult, error) {
	steady, err := l.SteadyRPS()
	if err != nil {
		return RegionsResult{}, err
	}

	// N independent seeders: distinct traffic seeds give each a
	// genuinely different request mix, so their profiles disagree in
	// the ways the consensus merge votes over.
	seeds, err := parallel.MapErr(l.Cfg.Workers, regionsSeeders, func(i int) (*prof.Profile, error) {
		return l.seedPackageWithSeed(uint64(i + 1))
	})
	if err != nil {
		return RegionsResult{}, err
	}

	// Aggregate first — the consumer boots below must not see packages
	// the merge has already read, so every boot gets a wire-format
	// clone.
	agg, aggStats, err := prof.Aggregate(seeds)
	if err != nil {
		return RegionsResult{}, err
	}
	res := RegionsResult{AggStats: aggStats}

	clone := func(p *prof.Profile) *prof.Profile {
		out, err := prof.Decode(p.Encode())
		if err != nil {
			panic("experiments: package round-trip failed: " + err.Error())
		}
		return out
	}

	// Per-seeder consumer warmups plus the consensus consumer, all
	// against the same warm-capacity normalization.
	ticksAll, err := parallel.MapErr(l.Cfg.Workers, regionsSeeders+1, func(i int) ([]server.TickStats, error) {
		pkg := agg
		if i < regionsSeeders {
			pkg = seeds[i]
		}
		return l.Scenario.WarmupRun(core.FullJumpStart(), clone(pkg), l.Cfg.Horizon)
	})
	if err != nil {
		return RegionsResult{}, err
	}
	best := 0
	for i := 0; i < regionsSeeders; i++ {
		loss := server.CapacityLoss(ticksAll[i], steady)
		res.Seeders = append(res.Seeders, RegionsSeeder{
			Seed:     uint64(i + 1),
			Requests: seeds[i].Meta.RequestCount,
			Loss:     loss,
		})
		if loss < res.Seeders[best].Loss {
			best = i
		}
	}
	res.LossBestSingle = res.Seeders[best].Loss
	res.LossAggregated = server.CapacityLoss(ticksAll[regionsSeeders], steady)
	res.CurveAggregated = cluster.CurveFromTicks(ticksAll[regionsSeeders], steady)

	steadies, err := parallel.MapErr(l.Cfg.Workers, 2, func(i int) (float64, error) {
		pkg := seeds[best]
		if i == 1 {
			pkg = agg
		}
		st, err := l.Scenario.SteadyState(core.FullJumpStart(), clone(pkg), l.Cfg.SteadyRequests)
		if err != nil {
			return 0, err
		}
		return st.CapacityRPS, nil
	})
	if err != nil {
		return RegionsResult{}, err
	}
	res.SteadyBestSingle, res.SteadyAggregated = steadies[0], steadies[1]

	// Fleet half: the multi-region hierarchy under four network
	// regimes. Faults open at t=130 — after every publish on the
	// compressed schedule below (seeders at ~t=105, partial consensus
	// buffers flushed when C3 starts at t=125), before the first C3
	// consumers boot at t=135.
	curves, err := l.fleetCurves()
	if err != nil {
		return RegionsResult{}, err
	}
	type regime struct {
		name      string
		aggregate bool
		intra     []netsim.Fault
		inter     []netsim.Fault
	}
	regimes := []regime{
		{name: "single", aggregate: false},
		{name: "aggregated", aggregate: true},
		{name: "node_outage", aggregate: true,
			intra: []netsim.Fault{netsim.Partition(130, 1e9, "intra:r0/n0")}},
		{name: "region_outage_inter_partition", aggregate: true,
			intra: []netsim.Fault{netsim.PartitionPrefix(130, 1e9, "intra:r1/")},
			inter: []netsim.Fault{netsim.PartitionPrefix(0, 1e9, "inter:")}},
	}
	for _, rg := range regimes {
		pt, err := l.regionsFleet(rg.name, rg.aggregate, rg.intra, rg.inter, res.CurveAggregated, curves)
		if err != nil {
			return RegionsResult{}, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// seedPackageWithSeed runs one seeder whose traffic stream is forked
// from the given seed — core.SeedPackage with a per-seeder request
// mix.
func (l *Lab) seedPackageWithSeed(seed uint64) (*prof.Profile, error) {
	sc := *l.Scenario
	sc.ServerCfg.Seed = seed
	return sc.SeedPackage()
}

// regionsFleet runs the multi-region fleet once: 3-node shards per
// region, 2-way replication, a 60 s propagation cadence, and (when
// aggregate is set) one consensus package per two seeder outputs. The
// deployment schedule is compressed so the fault windows above land
// between publish and the C3 fetch storm.
func (l *Lab) regionsFleet(name string, aggregate bool, intra, inter []netsim.Fault,
	curveAgg cluster.WarmupCurve, curves [2]cluster.WarmupCurve) (RegionsPoint, error) {
	aggN := 0
	if aggregate {
		aggN = 2
	}
	f, ticks, err := l.deploy(curves, 8*l.Cfg.Horizon, func(cfg *cluster.Config) {
		cfg.CurveAggregated = curveAgg
		cfg.C1Hold = 30
		cfg.C2Hold = 90
		cfg.SeederDuration = 60
		cfg.Transport = &cluster.TransportConfig{
			Net:          netsim.Config{BaseLatency: 0.02, Faults: intra},
			Client:       transport.ClientConfig{RPCTimeout: 1, Budget: 12, BackoffBase: 0.1, BackoffCap: 5},
			PackageBytes: 2048,
			ChunkSize:    512,
			Multi: &cluster.MultiConfig{
				NodesPerRegion:   3,
				Replicas:         2,
				PropagateEvery:   60,
				InterNet:         netsim.Config{BaseLatency: 0.3, Faults: inter},
				AggregateSeeders: aggN,
			},
		}
	})
	if err != nil {
		return RegionsPoint{}, err
	}
	propOK, propFail := f.Propagation()
	exhausted := 0
	for _, rc := range f.FallbackReasons() {
		if rc.Reason == jumpstart.FallbackReplicasExhausted {
			exhausted += rc.Count
		}
	}
	return RegionsPoint{
		Name:      name,
		Aggregate: aggregate,
		Loss:      cluster.CapacityLoss(ticks, l.Cfg.FleetCfg.TickSeconds),
		Crashes:   f.Crashes(),
		Fallbacks: f.Fallbacks(),
		Failovers: f.Failovers(),
		Consensus: f.ConsensusPackages(),
		AggBoots:  f.AggregatedBoots(),
		PropOK:    propOK,
		PropFail:  propFail,
		Exhausted: exhausted,
	}, nil
}

// WriteRegions renders the regions figure.
func (l *Lab) WriteRegions(w io.Writer) error {
	res, err := l.Regions()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "## Regions: multi-region sharded stores, seeder aggregation, cross-region propagation")
	fmt.Fprintf(w, "# consensus merge: seeders=%d funcs=%d checksum_conflicts=%d type_sites_kept=%d dropped=%d vasm_dropped=%d\n",
		res.AggStats.Seeders, res.AggStats.Funcs, res.AggStats.ChecksumConflicts,
		res.AggStats.TypeSitesKept, res.AggStats.TypeSitesDropped, res.AggStats.VasmDropped)
	fmt.Fprintln(w, "seeder,requests,loss_pct")
	for _, s := range res.Seeders {
		fmt.Fprintf(w, "%d,%d,%.1f\n", s.Seed, s.Requests, s.Loss*100)
	}
	fmt.Fprintf(w, "# warmup loss: best_single=%.1f%% aggregated=%.1f%% | steady capacity: best_single=%.0f RPS aggregated=%.0f RPS\n",
		res.LossBestSingle*100, res.LossAggregated*100,
		res.SteadyBestSingle, res.SteadyAggregated)
	fmt.Fprintln(w, "scenario,aggregate,fleet_loss_pct,crashes,fallbacks,failovers,consensus_pkgs,agg_boots,prop_ok,prop_fail,failover_exhausted")
	for _, pt := range res.Points {
		fmt.Fprintf(w, "%s,%v,%.2f,%d,%d,%d,%d,%d,%d,%d,%d\n",
			pt.Name, pt.Aggregate, pt.Loss*100, pt.Crashes, pt.Fallbacks,
			pt.Failovers, pt.Consensus, pt.AggBoots, pt.PropOK, pt.PropFail, pt.Exhausted)
	}
	fmt.Fprintln(w, "# replica failover absorbs a node outage; a region outage records the distinct exhausted reason; propagation retries through partitions")
	fmt.Fprintln(w)
	return nil
}
