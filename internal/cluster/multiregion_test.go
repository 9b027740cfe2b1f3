package cluster

import (
	"fmt"
	"runtime"
	"testing"

	"jumpstart/internal/jumpstart"
	"jumpstart/internal/netsim"
	"jumpstart/internal/telemetry"
)

// aggCurve is the consensus-package warmup curve: a merged profile
// covers more of the workload than any single seeder's, so it warms
// faster than jsCurve.
func aggCurve() WarmupCurve {
	return WarmupCurve{
		Times:  []float64{0, 20, 50, 80},
		Values: []float64{0.4, 0.8, 0.95, 1.0},
	}
}

// multiFleetConfig wires the multi-region hierarchy into the standard
// test fleet.
func multiFleetConfig(intra netsim.Config, mc MultiConfig) Config {
	cfg := transportFleetConfig(intra)
	cfg.Transport.Multi = &mc
	cfg.CurveAggregated = aggCurve()
	return cfg
}

// regionsBrownoutConfig is the multi-region headline fleet: sharded
// per-region stores, 2-way replication, pairwise seeder aggregation and
// a long-haul brownout over the propagation window.
func regionsBrownoutConfig() Config {
	return multiFleetConfig(
		netsim.Config{BaseLatency: 0.02},
		MultiConfig{
			NodesPerRegion:   3,
			Replicas:         2,
			PropagateEvery:   60,
			AggregateSeeders: 2,
			InterNet: netsim.Config{
				BaseLatency: 0.3,
				Faults:      []netsim.Fault{netsim.BrownoutPrefix(250, 900, 0.9, 0.5, "inter:")},
			},
		})
}

// TestFleetRegionsDeterminism is the multi-region headline test: with
// sharded per-region stores, 2-way replication, seeder aggregation and
// a long-haul brownout over the propagation window, the fleet degrades
// gracefully — zero crashes, every consumer either jump-started or
// fell back with a recorded reason — and the run is byte-identical
// across worker counts, with telemetry on or off.
func TestFleetRegionsDeterminism(t *testing.T) {
	type run struct {
		ticks     []FleetTick
		fallbacks []ReasonCount
		outcomes  []ServerOutcome
		failovers int
		consensus int
		aggBoots  int
		propOK    int
		propFail  int
	}
	do := func(workers int, tel *telemetry.Set) run {
		cfg := regionsBrownoutConfig()
		cfg.Workers = workers
		cfg.Telem = tel
		f, ticks := runDeployment(t, cfg, 4000)
		ok, fail := f.Propagation()
		return run{
			ticks:     ticks,
			fallbacks: f.FallbackReasons(),
			outcomes:  f.Outcomes(),
			failovers: f.Failovers(),
			consensus: f.ConsensusPackages(),
			aggBoots:  f.AggregatedBoots(),
			propOK:    ok,
			propFail:  fail,
		}
	}
	base := do(1, nil)

	if base.consensus == 0 {
		t.Fatal("aggregation never produced a consensus package")
	}
	if base.aggBoots == 0 {
		t.Fatal("no consumer booted from a consensus package")
	}
	if base.propFail == 0 {
		t.Fatal("long-haul brownout never defeated a propagation transfer")
	}
	if base.propOK == 0 {
		t.Fatal("propagation never converged after the brownout lifted")
	}
	for i, o := range base.outcomes {
		if o.Crashes != 0 {
			t.Fatalf("server %d crashed", i)
		}
		if o.Group != 2 && !o.UsedJS && o.Reason == jumpstart.FallbackNone {
			t.Fatalf("server %d (group %d) booted without Jump-Start and without a recorded reason", i, o.Group)
		}
	}

	for _, workers := range []int{4, runtime.NumCPU()} {
		got := do(workers, telemetry.NewSet())
		if i, ok := ticksEqual(base.ticks, got.ticks); !ok {
			t.Fatalf("workers=%d diverged at tick %d: %+v vs %+v",
				workers, i, base.ticks[i], got.ticks[i])
		}
		if fmt.Sprintf("%v", got.fallbacks) != fmt.Sprintf("%v", base.fallbacks) {
			t.Fatalf("workers=%d fallback reasons diverged: %v vs %v",
				workers, got.fallbacks, base.fallbacks)
		}
		if fmt.Sprintf("%v", got.outcomes) != fmt.Sprintf("%v", base.outcomes) {
			t.Fatalf("workers=%d server outcomes diverged", workers)
		}
		if got.failovers != base.failovers || got.consensus != base.consensus ||
			got.aggBoots != base.aggBoots || got.propOK != base.propOK ||
			got.propFail != base.propFail {
			t.Fatalf("workers=%d counters diverged: %+v vs %+v", workers, got, base)
		}
	}
}

// TestFleetReplicaFailoverAndRegionOutage: after the seeders publish, a
// single store node goes dark in region 0 (consumers there fail over to
// the surviving replica — no fallback needed) while region 1 loses its
// whole store plane (every replica leg fails — consumers fall back with
// the distinct failover-exhausted reason). Zero crashes either way.
func TestFleetReplicaFailoverAndRegionOutage(t *testing.T) {
	cfg := multiFleetConfig(
		netsim.Config{Faults: []netsim.Fault{
			// Both faults open at t=280: after the C2 seeders published
			// (~t=250), before the C3 fetch storm.
			netsim.Partition(280, 1e9, "intra:r0/n0"),
			netsim.PartitionPrefix(280, 1e9, "intra:r1/"),
		}},
		MultiConfig{NodesPerRegion: 3, Replicas: 2, PropagateEvery: 60})
	cfg.Transport.Client.Budget = 8
	f, _ := runDeployment(t, cfg, 4000)

	if f.Crashes() != 0 {
		t.Fatalf("crashes = %d", f.Crashes())
	}
	if f.Failovers() == 0 {
		t.Fatal("no fetch ever failed over to a replica")
	}
	exhausted := 0
	for _, rc := range f.FallbackReasons() {
		if rc.Reason == jumpstart.FallbackReplicasExhausted {
			exhausted += rc.Count
		}
	}
	if exhausted == 0 {
		t.Fatalf("region outage never recorded the failover-exhausted reason: %v", f.FallbackReasons())
	}
	for i, o := range f.Outcomes() {
		if o.Group != 2 && !o.UsedJS && o.Reason == jumpstart.FallbackNone {
			t.Fatalf("server %d skipped Jump-Start silently", i)
		}
	}
	// Region 0's C3 consumers never needed a fallback: the replica
	// absorbed the node outage. (Group 1 boots before any package
	// exists, so it is exempt.)
	region0 := cfg.Buckets * cfg.ServersPerBucket
	for i := 0; i < region0; i++ {
		if o := f.Outcomes()[i]; o.Group == 3 && !o.UsedJS {
			t.Fatalf("region 0 server %d fell back (%q) despite a surviving replica", i, o.Reason)
		}
	}
}

// TestFleetInterRegionPartitionIsolation: a permanent partition on the
// long-haul links stops propagation cold but leaves both regions'
// local Jump-Start loops intact — every transfer fails, nothing
// crosses, nothing crashes, and no consumer needs a fallback because
// each region consumes its own seeders' packages.
func TestFleetInterRegionPartitionIsolation(t *testing.T) {
	mc := MultiConfig{NodesPerRegion: 3, Replicas: 2, PropagateEvery: 60}
	mc.InterNet = netsim.Config{Faults: []netsim.Fault{netsim.PartitionPrefix(0, 1e9, "inter:")}}
	mc.InterNet.BaseLatency = 0.3
	cut, cutTicks := runDeployment(t, multiFleetConfig(netsim.Config{}, mc), 4000)

	ok, fail := cut.Propagation()
	if ok != 0 || fail == 0 {
		t.Fatalf("partitioned propagation: transferred=%d failed=%d", ok, fail)
	}
	if cut.Crashes() != 0 {
		t.Fatalf("crashes = %d", cut.Crashes())
	}
	for _, rc := range cut.FallbackReasons() {
		if rc.Reason == jumpstart.FallbackReplicasExhausted {
			t.Fatalf("intra-region fetches failed under an inter-region fault: %v", rc)
		}
	}
	if cut.Deploying() {
		t.Fatal("deployment never completed")
	}

	// The same fleet with healthy long-haul links converges: every
	// entry lands in both regions, so more packages are available.
	healthy, hTicks := runDeployment(t,
		multiFleetConfig(netsim.Config{},
			MultiConfig{NodesPerRegion: 3, Replicas: 2, PropagateEvery: 60,
				InterNet: netsim.Config{BaseLatency: 0.3}}), 4000)
	if ok, _ := healthy.Propagation(); ok == 0 {
		t.Fatal("healthy propagation moved nothing")
	}
	if h, c := hTicks[len(hTicks)-1].PkgsAvail, cutTicks[len(cutTicks)-1].PkgsAvail; h <= c {
		t.Fatalf("healthy long-haul links did not widen availability: %d vs %d", h, c)
	}
}

// TestConsensusVoting pins the majority-defective rule: one bad seeder
// is outvoted by two good ones, two bad seeders poison the consensus,
// and a singleton buffer passes through unchanged.
func TestConsensusVoting(t *testing.T) {
	f, err := NewFleet(multiFleetConfig(netsim.Config{},
		MultiConfig{NodesPerRegion: 2, Replicas: 2, AggregateSeeders: 3}))
	if err != nil {
		t.Fatal(err)
	}
	src := f.src.(*multiSource)
	good := pkgInfo{payload: []byte{1}}
	bad := pkgInfo{defective: true, payload: []byte{2}}

	if out := src.consensusOf([]pkgInfo{bad, good, good}); out.defective || !out.aggregated {
		t.Fatalf("outvoted defect poisoned the consensus: %+v", out)
	}
	if out := src.consensusOf([]pkgInfo{bad, bad, good}); !out.defective || !out.aggregated {
		t.Fatalf("majority defect survived the vote: %+v", out)
	}
	single := src.consensusOf([]pkgInfo{bad})
	if !single.defective || single.aggregated || &single.payload[0] != &bad.payload[0] {
		t.Fatalf("singleton flush altered the package: %+v", single)
	}
}
