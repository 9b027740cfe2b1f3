package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"

	"jumpstart/internal/cluster"
	"jumpstart/internal/jumpstart"
	"jumpstart/internal/jumpstart/transport"
	"jumpstart/internal/netsim"
	"jumpstart/internal/parallel"
	"jumpstart/internal/scenario"
	"jumpstart/internal/server"
	"jumpstart/internal/telemetry"
	"jumpstart/internal/workload"
)

// benchWorkers pins the repo's own parallel fan-out: the box has two
// cores, and the driver goroutine blocks while workers run, so no run
// ever has more than nproc runnable goroutines.
const benchWorkers = 2

// figureSet is what figures_quick renders: the eight paper figures.
var figureSet = []string{"1", "2", "4", "5", "6", "lifespan", "reliability", "fleet"}

// opts are the knobs that must not change simulated output: an op's
// digest is identical at every combination of them.
type opts struct {
	workers int
	replay  bool
	telem   *telemetry.Set
	tr      *tracer
	parent  int // the op's own span under tr
}

func defaultOpts() opts { return opts{workers: benchWorkers, replay: true} }

// opResult is what one operation hands back to the driver.
type opResult struct {
	digest [sha256.Size]byte // over the op's simulated output
	events int64             // simulated events completed
	// counts are exact simulated counters read from the finished op;
	// they repeat bit for bit and feed the (c) per-layer metrics.
	counts map[string]float64
	// tickDone is the requests completed in each tick of a server op,
	// in tick order (it lines up with the op's tick spans).
	tickDone []int
}

// An opFunc runs one operation from fresh state: it builds its own
// Lab / Server / Fleet value and shares nothing mutable with any other
// op. It returns an error if the op's output is wrong.
type opFunc func(e *env, sz sizes, seed uint64, o opts) (opResult, error)

func sum(h hash.Hash) (d [sha256.Size]byte) {
	copy(d[:], h.Sum(nil))
	return d
}

// ---------------------------------------------------------------------

// opFigures renders the eight paper figures on a fresh memo-less Lab.
func opFigures(e *env, sz sizes, seed uint64, o opts) (opResult, error) {
	cfg := e.cfg
	cfg.Workers = o.workers
	cfg.ServerCfg.Seed = seed
	cfg.ServerCfg.ReplayCache = o.replay
	cfg.FleetCfg.Seed = seed
	lab := e.lab(cfg)

	var out bytes.Buffer
	if o.tr == nil {
		if err := lab.RunFigures(&out, figureSet, o.workers); err != nil {
			return opResult{}, err
		}
	} else {
		// RunFigures is this fan-out over WriteFigure; doing it here
		// lets each figure get its own span. The digest check pins the
		// two paths to identical bytes.
		outs, err := parallel.MapErr(o.workers, len(figureSet), func(i int) ([]byte, error) {
			var buf bytes.Buffer
			id := o.tr.begin(o.parent, "experiments", "fig:"+figureSet[i])
			err := lab.WriteFigure(&buf, figureSet[i])
			o.tr.end(id)
			return buf.Bytes(), err
		})
		if err != nil {
			return opResult{}, err
		}
		for _, b := range outs {
			out.Write(b)
		}
	}
	fig4, err := lab.Fig4() // memoized by the render above
	if err != nil {
		return opResult{}, err
	}
	if fig4.JumpStart.CapacityLoss >= fig4.NoJumpStart.CapacityLoss {
		return opResult{}, fmt.Errorf("figures: Jump-Start capacity loss %.4f >= no-Jump-Start %.4f",
			fig4.JumpStart.CapacityLoss, fig4.NoJumpStart.CapacityLoss)
	}
	return opResult{
		digest: sha256.Sum256(out.Bytes()),
		events: int64(len(figureSet)),
		counts: map[string]float64{
			"loss_js_pct":   fig4.JumpStart.CapacityLoss * 100,
			"loss_nojs_pct": fig4.NoJumpStart.CapacityLoss * 100,
		},
	}, nil
}

// ---------------------------------------------------------------------

// runServer ticks a booted server for the given virtual time, one span
// per tick tagged with the phase the tick started in, and folds the
// tick series into the result.
func runServer(s *server.Server, cfg server.Config, seconds float64, o opts) (opResult, error) {
	h := sha256.New()
	res := opResult{counts: map[string]float64{}}
	n := int(seconds / cfg.TickSeconds)
	ticks := make([]server.TickStats, 0, n)
	for i := 0; i < n; i++ {
		id := o.tr.begin(o.parent, "server", "tick:"+s.Phase().String())
		tk := s.Tick()
		o.tr.end(id)
		fmt.Fprintln(h, tk)
		res.events += int64(tk.Completed)
		res.tickDone = append(res.tickDone, tk.Completed)
		ticks = append(ticks, tk)
	}
	res.digest = sum(h)
	if s.Faults() > 0 {
		return res, fmt.Errorf("server: %d faulted requests", s.Faults())
	}
	if s.Phase() != server.PhaseServing {
		return res, fmt.Errorf("server: ended in phase %s, not serving", s.Phase())
	}
	mem := s.Mem().Stats()
	res.counts["requests_completed"] = float64(res.events)
	res.counts["sim_capacity_loss_pct"] = server.CapacityLoss(ticks, cfg.OfferedRPS) * 100
	res.counts["code_bytes"] = float64(s.CodeBytes())
	res.counts["microarch.accesses"] = float64(mem.Fetches + mem.DataAccs + mem.Branches)
	res.counts["microarch.l1i_miss_ratio"] = mem.L1IMissRate()
	res.counts["microarch.itlb_miss_ratio"] = mem.ITLBMissRate()
	res.counts["microarch.branch_miss_ratio"] = mem.BranchMissRate()
	if rc := s.ReplayCache(); rc != nil {
		res.counts["replay.hits"] = float64(rc.Hits())
		res.counts["replay.misses"] = float64(rc.Misses())
		res.counts["replay.entries"] = float64(rc.Entries())
	}
	return res, nil
}

// opCold boots a server without Jump-Start and runs the warmup window:
// init, profiling, optimizing (tier-2 compile + relocation), serving.
func opCold(e *env, sz sizes, seed uint64, o opts) (opResult, error) {
	cfg := e.cfg.ServerCfg
	cfg.Mode = server.ModeNoJumpStart
	cfg.Seed = seed
	cfg.ReplayCache = o.replay
	cfg.Telem = o.telem
	id := o.tr.begin(o.parent, "server", "new")
	s, err := server.New(e.sc.Site, cfg)
	o.tr.end(id)
	if err != nil {
		return opResult{}, err
	}
	return runServer(s, cfg, e.cfg.Horizon, o)
}

// opJumpStart boots a consumer from the published package over a
// healthy simulated connection, with every Jump-Start optimization on,
// and serves.
func opJumpStart(e *env, sz sizes, seed uint64, o opts) (opResult, error) {
	cfg := e.cfg.ServerCfg
	cfg.Seed = seed
	cfg.ReplayCache = o.replay
	cfg.Telem = o.telem
	cfg.JITOpts.UseVasmCounters = true
	cfg.JITOpts.UseSeededCallGraph = true
	cfg.UsePropertyOrder = true

	cc := transport.DefaultClientConfig()
	cc.Seed = seed
	clock := netsim.NewVirtualClock(0)
	conn := transport.NewSimConn(e.tsrv, netsim.NewFabric(netsim.Config{}), "consumer", clock,
		netsim.NewStream(workload.Fork(seed, 1)), cc.RPCTimeout)
	pick := netsim.NewStream(workload.Fork(seed, 2))

	id := o.tr.begin(o.parent, "jumpstart", "boot_consumer")
	s, info, err := jumpstart.BootConsumer(e.sc.Site, transport.NewClient(conn, clock, cc),
		jumpstart.BootConfig{Server: cfg, Rand: pick.Uint64, Telem: o.telem, Clock: clock.Now})
	o.tr.end(id)
	if err != nil {
		return opResult{}, err
	}
	if !info.UsedJumpStart {
		return opResult{}, fmt.Errorf("jumpstart: consumer fell back: %s", info.FallbackReason)
	}
	return runServer(s, cfg, sz.jsSeconds, o)
}

// ---------------------------------------------------------------------

// runFleet deploys and ticks a fleet, one span per tick tagged with
// whether a push is in flight.
func runFleet(cfg cluster.Config, seconds float64, o opts) (opResult, error) {
	cfg.Workers = o.workers
	cfg.Telem = o.telem
	id := o.tr.begin(o.parent, "cluster", "newfleet")
	f, err := cluster.NewFleet(cfg)
	o.tr.end(id)
	if err != nil {
		return opResult{}, err
	}
	f.StartDeployment()
	h := sha256.New()
	n := int(seconds / cfg.TickSeconds)
	ticks := make([]cluster.FleetTick, 0, n)
	for i := 0; i < n; i++ {
		name := "tick:quiet"
		if f.Deploying() {
			name = "tick:deploy"
		}
		id := o.tr.begin(o.parent, "cluster", name)
		tk := f.Tick()
		o.tr.end(id)
		fmt.Fprintln(h, tk)
		ticks = append(ticks, tk)
	}
	okProp, failProp := f.Propagation()
	counts := map[string]float64{
		"sim_capacity_loss_pct": cluster.CapacityLoss(ticks, cfg.TickSeconds) * 100,
		"fallbacks":             float64(f.Fallbacks()),
		"crashes":               float64(f.Crashes()),
		"remap_boots":           float64(f.RemapBoots()),
		"failovers":             float64(f.Failovers()),
		"servers":               float64(f.Servers()),
		"ticks":                 float64(n),
	}
	fmt.Fprintln(h, counts["fallbacks"], counts["crashes"], counts["remap_boots"],
		counts["failovers"], f.ConsensusPackages(), f.AggregatedBoots(), okProp, failProp, f.Revision())
	if n == 0 || ticks[n-1].Capacity <= 0 {
		return opResult{}, errors.New("cluster: fleet ended with no capacity")
	}
	return opResult{digest: sum(h), events: int64(f.Servers()) * int64(n), counts: counts}, nil
}

// fleetBase is the deployment both fleet workloads share: continuous
// pushes with packages carried across each revision boundary at the
// remap hit rate measured in set-up.
func fleetBase(e *env, seed uint64, perBucket int) cluster.Config {
	cfg := e.cfg.FleetCfg
	cfg.Regions, cfg.Buckets, cfg.ServersPerBucket = 3, 10, perBucket
	cfg.Seed = seed
	cfg.CurveJumpStart, cfg.CurveNoJumpStart = e.curves[0], e.curves[1]
	cfg.PushEvery = 900
	cfg.RemapPolicy = jumpstart.RemapTolerant
	cfg.RemapHitRate = e.remapHit
	return cfg
}

// opFleetDirect is the big fleet on the in-memory store: the parallel
// per-server curve replay dominates.
func opFleetDirect(e *env, sz sizes, seed uint64, o opts) (opResult, error) {
	return runFleet(fleetBase(e, seed, sz.directPerBucket), sz.fleetSeconds, o)
}

// opFleetStore is the small fleet behind the networked multi-region
// store under faults: the sequential merge phase dominates.
func opFleetStore(e *env, sz sizes, seed uint64, o opts) (opResult, error) {
	cfg := fleetBase(e, seed, sz.storePerBucket)
	cfg.DefectRate = 0.1
	cfg.Transport = &cluster.TransportConfig{
		Net: netsim.Config{BaseLatency: 0.02,
			Faults: []netsim.Fault{netsim.Partition(300, 1200, "intra:r0/n0")}},
		Client:       transport.ClientConfig{RPCTimeout: 1, Budget: 12, BackoffBase: 0.1, BackoffCap: 5},
		PackageBytes: 2048,
		ChunkSize:    512,
		Multi: &cluster.MultiConfig{
			NodesPerRegion: 3,
			Replicas:       2,
			PropagateEvery: 60,
			InterNet: netsim.Config{BaseLatency: 0.3,
				Faults: []netsim.Fault{netsim.Brownout(300, 1200, 0.9, 0.5)}},
			AggregateSeeders: 3,
		},
	}
	scfg := scenario.DefaultConfig(scenario.Diurnal, cfg.Regions, sz.fleetSeconds)
	scfg.Seed = seed
	eng, err := scenario.New(scfg)
	if err != nil {
		return opResult{}, err
	}
	cfg.Scenario = eng
	return runFleet(cfg, sz.fleetSeconds, o)
}
