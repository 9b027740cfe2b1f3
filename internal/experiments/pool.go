package experiments

import (
	"fmt"
	"io"

	"jumpstart/internal/cluster"
	"jumpstart/internal/core"
	"jumpstart/internal/jumpstart"
	"jumpstart/internal/jumpstart/transport"
	"jumpstart/internal/netsim"
	"jumpstart/internal/obs"
	"jumpstart/internal/parallel"
	"jumpstart/internal/server"
	"jumpstart/internal/workload"
)

// poolGrid is the standby-pool sweep: capacity loss of a full push as
// a function of pool size × backfill rate. Size 0 is the no-pool
// baseline; rate 0 is an unthrottled backfill.
var poolGrid = []struct {
	Size int
	Rate float64
}{
	{0, 0},
	{8, 0}, {8, 0.02},
	{32, 0}, {32, 0.02},
	{128, 0}, {128, 0.02},
}

// PoolCell is one grid run's outcome.
type PoolCell struct {
	Size  int
	Rate  float64
	Loss  float64
	Stats cluster.PoolStats
}

// PoolCrossCell is one eager-vs-lazy × healthy-vs-brownout fleet run.
type PoolCrossCell struct {
	Name string // e.g. "lazy-brownout"
	Loss float64
}

// PoolResult is the warm-pool + lazy-paging figure: the pool sweep,
// the measured single-server lazy boots (with page-in accounting), and
// the eager/lazy crossover under healthy and browned-out networks,
// classified into a fleet SLO report.
type PoolResult struct {
	Grid []PoolCell

	// Single-server lazy boots feeding CurveLazy, per network.
	LazyHealthy  server.LazyStats
	LazyBrownout server.LazyStats
	// Pager page-ins/misses per network (misses fall back to live JIT).
	PageInsHealthy, MissesHealthy   int
	PageInsBrownout, MissesBrownout int

	Crossover []PoolCrossCell
	Report    *obs.Report
}

// lazyNetworks names the two fabrics the lazy boot is measured under.
// The brownout blankets the warmup window (minus a short healthy lead
// so the boot fetch of the package itself lands), at the Brownout
// figure's severity.
func (l *Lab) lazyNetworks() [2]netsim.Config {
	return [2]netsim.Config{
		{BaseLatency: 0.001},
		{
			BaseLatency: 0.001,
			Faults:      []netsim.Fault{netsim.Brownout(1, 1+l.Cfg.Horizon, 0.97, 0.5)},
		},
	}
}

// lazyWarmup boots one lazy consumer whose page-ins travel a simulated
// network, and measures its warmup ticks. The boot fetch itself runs
// in the healthy lead-in; each page-in then arms its own per-fetch
// budget against whatever the fabric has become — the mechanism that
// separates the healthy and brownout lazy curves.
func (l *Lab) lazyWarmup(net netsim.Config) ([]server.TickStats, server.LazyStats, *transport.LazyPager, error) {
	pkg := l.clonePkg()
	store := jumpstart.NewStore()
	store.Publish(0, 0, pkg.Encode())
	tsrv := transport.NewServer(store, transport.DefaultChunkSize)
	cc := transport.DefaultClientConfig()
	cc.Budget = 10
	clock := netsim.NewVirtualClock(0)
	conn := transport.NewSimConn(tsrv, netsim.NewFabric(net), "lazy-consumer", clock,
		netsim.NewStream(workload.Fork(0x1a2, 0)), cc.RPCTimeout)
	cli := transport.NewClient(conn, clock, cc)
	res, err := cli.Fetch(0, 0, 1, nil)
	if err != nil {
		return nil, server.LazyStats{}, nil, fmt.Errorf("experiments: lazy boot fetch: %w", err)
	}
	pager := transport.NewLazyPager(cli, res.Manifest)

	sc := *l.Scenario
	sc.ServerCfg.LazyWarmup = true
	sc.ServerCfg.Pager = pager
	s, err := sc.ServerFor(core.FullJumpStart(), pkg)
	if err != nil {
		return nil, server.LazyStats{}, nil, err
	}
	ticks := s.Run(l.Cfg.Horizon)
	return ticks, s.LazyStats(), pager, nil
}

// LazyCurveResult is one measured lazy boot: the warmup curve its
// capacity traced (normalized against the eager steady state) plus the
// arming and page-in accounting behind it.
type LazyCurveResult struct {
	Curve   cluster.WarmupCurve
	Stats   server.LazyStats
	PageIns int
	Misses  int
}

// MeasureLazyCurve boots one lazy consumer whose page-ins travel the
// given fabric and returns its warmup curve — the input a lazy-mode
// fleet simulation replays (fleetsim -warmup-mode lazy).
func (l *Lab) MeasureLazyCurve(net netsim.Config) (LazyCurveResult, error) {
	steady, err := l.SteadyRPS()
	if err != nil {
		return LazyCurveResult{}, err
	}
	ticks, stats, pager, err := l.lazyWarmup(net)
	if err != nil {
		return LazyCurveResult{}, err
	}
	ins, misses := pager.Stats()
	return LazyCurveResult{
		Curve:   cluster.CurveFromTicks(ticks, steady),
		Stats:   stats,
		PageIns: ins,
		Misses:  misses,
	}, nil
}

// poolCrossRegimes are the four crossover fleet runs. CurveLazy and
// the transport config are filled per-regime by the driver.
var poolCrossRegimes = []struct {
	name     string
	lazy     bool
	brownout bool
}{
	{"eager-healthy", false, false},
	{"lazy-healthy", true, false},
	{"eager-brownout", false, true},
	{"lazy-brownout", true, true},
}

// Pool runs the warm-pool + lazy-paging figure (cached).
func (l *Lab) Pool() (PoolResult, error) {
	return l.poolRes.get(struct{}{}, l.pool)
}

func (l *Lab) pool() (PoolResult, error) {
	curves, err := l.fleetCurves()
	if err != nil {
		return PoolResult{}, err
	}
	res := PoolResult{}
	dt := l.Cfg.FleetCfg.TickSeconds

	// Part 1 — the pool sweep. Independent deterministic fleet runs;
	// fan out and merge in grid order.
	cells, err := parallel.MapErr(l.Cfg.Workers, len(poolGrid), func(i int) (PoolCell, error) {
		f, ticks, err := l.deploy(curves, 6*l.Cfg.Horizon, func(cfg *cluster.Config) {
			cfg.PoolSize = poolGrid[i].Size
			cfg.PoolBackfillRate = poolGrid[i].Rate
		})
		if err != nil {
			return PoolCell{}, err
		}
		return PoolCell{
			Size:  poolGrid[i].Size,
			Rate:  poolGrid[i].Rate,
			Loss:  cluster.CapacityLoss(ticks, dt),
			Stats: f.PoolStats(),
		}, nil
	})
	if err != nil {
		return PoolResult{}, err
	}
	res.Grid = cells

	// Part 2 — measure the lazy boot under each fabric. Two independent
	// single-server runs.
	nets := l.lazyNetworks()
	lazyRuns, err := parallel.MapErr(l.Cfg.Workers, len(nets), func(i int) (LazyCurveResult, error) {
		return l.MeasureLazyCurve(nets[i])
	})
	if err != nil {
		return PoolResult{}, err
	}
	res.LazyHealthy, res.LazyBrownout = lazyRuns[0].Stats, lazyRuns[1].Stats
	res.PageInsHealthy, res.MissesHealthy = lazyRuns[0].PageIns, lazyRuns[0].Misses
	res.PageInsBrownout, res.MissesBrownout = lazyRuns[1].PageIns, lazyRuns[1].Misses

	// Part 3 — the eager/lazy crossover at fleet scale, classified.
	// Eager boots replay the eager Jump-Start curve and pay their
	// package fetch through the fleet transport; lazy boots replay the
	// lazy curve measured under the matching fabric.
	c3 := l.Cfg.FleetCfg.C1Hold + l.Cfg.FleetCfg.C2Hold
	crossRuns, err := parallel.MapErr(l.Cfg.Workers, len(poolCrossRegimes), func(i int) (fleetObs, error) {
		rg := poolCrossRegimes[i]
		f, ticks, err := l.deploy(curves, 6*l.Cfg.Horizon, func(cfg *cluster.Config) {
			cfg.RecordSeries = true
			if rg.lazy {
				cfg.WarmupMode = jumpstart.WarmupLazy
				if rg.brownout {
					cfg.CurveLazy = lazyRuns[1].Curve
				} else {
					cfg.CurveLazy = lazyRuns[0].Curve
				}
			}
			cc := transport.DefaultClientConfig()
			cc.Budget = 10
			tc := &cluster.TransportConfig{Client: cc}
			if rg.brownout {
				tc.Net = netsim.Config{
					BaseLatency: 0.02,
					Faults:      []netsim.Fault{netsim.Brownout(c3, c3+6*l.Cfg.Horizon, 0.97, 0.5)},
				}
			}
			cfg.Transport = tc
		})
		if err != nil {
			return fleetObs{}, err
		}
		return observeFleet(f, dt, cluster.CapacityLoss(ticks, dt)), nil
	})
	if err != nil {
		return PoolResult{}, err
	}
	res.Report = obs.NewReport(l.WarmclassSLO())
	for i, run := range crossRuns {
		res.Crossover = append(res.Crossover, PoolCrossCell{
			Name: poolCrossRegimes[i].name,
			Loss: run.loss,
		})
		run.addTo(res.Report.Regime(poolCrossRegimes[i].name))
	}
	return res, nil
}

// WritePool renders the warm-pool + lazy-paging figure.
func (l *Lab) WritePool(w io.Writer) error {
	res, err := l.Pool()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "## Pool: standby warm-pool tier + lazy package paging")
	fmt.Fprintln(w, "pool_size,backfill_per_s,capacity_loss_pct,drains,backfills,misses")
	for _, c := range res.Grid {
		fmt.Fprintf(w, "%d,%g,%.2f,%d,%d,%d\n",
			c.Size, c.Rate, c.Loss*100, c.Stats.Drains, c.Stats.Backfills, c.Stats.Misses)
	}
	fmt.Fprintf(w, "# lazy boot page-ins: healthy %d (%d misses, %d/%d armed paged), brownout %d (%d misses, %d/%d armed paged)\n",
		res.PageInsHealthy, res.MissesHealthy, res.LazyHealthy.Paged, res.LazyHealthy.Armed,
		res.PageInsBrownout, res.MissesBrownout, res.LazyBrownout.Paged, res.LazyBrownout.Armed)
	fmt.Fprintln(w, "mode_network,capacity_loss_pct")
	for _, c := range res.Crossover {
		fmt.Fprintf(w, "%s,%.2f\n", c.Name, c.Loss*100)
	}
	return l.writeSLOReport(w, res.Report)
}
