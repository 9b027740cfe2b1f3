package experiments

import (
	"fmt"
	"io"

	"jumpstart/internal/cluster"
	"jumpstart/internal/core"
	"jumpstart/internal/obs"
	"jumpstart/internal/parallel"
	"jumpstart/internal/scenario"
)

// scenarioKinds are the dynamic-traffic regimes the figure sweeps.
var scenarioKinds = []scenario.Kind{scenario.Diurnal, scenario.FlashCrowd, scenario.Failover}

// ScenarioCell is one scenario × Jump-Start fleet run.
type ScenarioCell struct {
	Kind      string
	JumpStart bool
	Loss      float64 // plain capacity loss (server-seconds view)
	ScenLoss  float64 // demand-weighted loss (what users feel)
	Stats     cluster.ScenarioStats
}

// GeometryResult measures the cost of consuming a package on
// different hardware than it was seeded on, single-server and at fleet
// scale.
type GeometryResult struct {
	BigSteadyRPS   float64 // warm capacity of the configured geometry
	SmallSteadyRPS float64 // warm capacity of the small-geometry server
	CapacityRatio  float64 // big / small (>= 1)

	// PayloadAgnostic reports whether a package seeded on the big
	// geometry warms the small server exactly like its own-seeded
	// package. Profiles are execution counts — not timings — so this
	// should hold; it is the property that makes cross-fleet seeding
	// safe at all.
	PayloadAgnostic bool

	// MatchedCurve is the small server warming with its own-seeded
	// package, normalized against its own steady capacity.
	// MismatchCurve is the modeled cross-geometry replay curve: the
	// matched curve with every milestone stretched by the measured
	// capacity ratio (the smaller geometry pays proportionally more
	// cycles per milestone).
	MatchedCurve  cluster.WarmupCurve
	MismatchCurve cluster.WarmupCurve

	MatchedT95  float64 // seconds to 95% of steady
	MismatchT95 float64

	// Fleet-scale cost: a push over a uniform fleet vs a two-class
	// fleet whose cross-geometry boots replay MismatchCurve.
	UniformLoss float64
	MixedLoss   float64
	MixedStats  cluster.ScenarioStats
	Census      []int
}

// ScenarioResult is the dynamic-traffic + heterogeneous-fleet figure.
type ScenarioResult struct {
	Grid     []ScenarioCell
	Geometry GeometryResult
	Report   *obs.Report
}

// FailoverStretch slows the Jump-Start curve for boots that absorb a
// failed-over region's load: the server divides its cycles over more
// traffic, so every JIT milestone arrives ~1.5× later.
const FailoverStretch = 1.5

// smallGeometry derives the previous-generation hardware class from
// the lab's configured geometry: half the cache sets and TLB reach,
// a quarter of the branch-predictor table.
func (l *Lab) smallGeometry() core.Scenario {
	sc := *l.Scenario
	mc := sc.ServerCfg.MemCfg
	mc.L1ISets /= 2
	mc.L1DSets /= 2
	mc.LLCSets /= 2
	mc.ITLBEntries /= 2
	mc.DTLBEntries /= 2
	mc.BPTableBits -= 2
	sc.ServerCfg.MemCfg = mc
	return sc
}

// curvesEqual reports whether two warmup curves are pointwise
// identical.
func curvesEqual(a, b cluster.WarmupCurve) bool {
	if len(a.Times) != len(b.Times) || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Times {
		if a.Times[i] != b.Times[i] || a.Values[i] != b.Values[i] {
			return false
		}
	}
	return true
}

// MeasureGeometry runs the heterogeneous-hardware measurement (cached
// via ScenarioFig): seed a package on each geometry, consume both on
// the small one to verify payload portability, derive the
// cross-geometry replay curve from the measured capacity ratio, then
// replay it through a two-class fleet.
func (l *Lab) measureGeometry(curves [2]cluster.WarmupCurve) (GeometryResult, error) {
	res := GeometryResult{}
	small := l.smallGeometry()

	// The small geometry's own package and warm capacity.
	pkgSmall, err := small.SeedPackage()
	if err != nil {
		return res, fmt.Errorf("experiments: small-geometry seeder: %w", err)
	}
	st, err := small.SteadyState(core.Variant{}, nil, l.Cfg.SteadyRequests/2)
	if err != nil {
		return res, err
	}
	res.SmallSteadyRPS = st.CapacityRPS
	if offered := small.ServerCfg.OfferedRPS; res.SmallSteadyRPS > offered {
		// Same normalization as SteadyRPS: completion rate is
		// min(offered, warm capacity).
		res.SmallSteadyRPS = offered
	}
	// The capacity ratio compares raw warm capacities — the offered-RPS
	// clamp would hide the hardware difference when both geometries can
	// cover the offered load.
	bigSt, err := l.steadyState(core.Variant{}, l.Cfg.SteadyRequests/2)
	if err != nil {
		return res, err
	}
	res.BigSteadyRPS = bigSt.CapacityRPS
	res.CapacityRatio = 1
	if st.CapacityRPS > 0 && bigSt.CapacityRPS > st.CapacityRPS {
		res.CapacityRatio = bigSt.CapacityRPS / st.CapacityRPS
	}

	// Both consumers run on the small geometry; only the package's
	// provenance differs. Independent deterministic runs — fan out.
	runs, err := parallel.MapErr(l.Cfg.Workers, 2, func(i int) (cluster.WarmupCurve, error) {
		pkg := pkgSmall
		if i == 1 {
			pkg = l.clonePkg() // seeded on the big geometry
		}
		ticks, err := small.WarmupRun(core.FullJumpStart(), pkg, l.Cfg.Horizon)
		if err != nil {
			return cluster.WarmupCurve{}, err
		}
		return cluster.CurveFromTicks(ticks, res.SmallSteadyRPS), nil
	})
	if err != nil {
		return res, err
	}
	res.MatchedCurve = runs[0]
	res.PayloadAgnostic = curvesEqual(runs[0], runs[1])
	// The measured payloads are geometry-agnostic (profiles count
	// executions, not timings), so the residual mismatch cost is the
	// hardware itself: every warmup milestone costs the capacity ratio
	// more cycles on the geometry the package was not seeded for.
	res.MismatchCurve = res.MatchedCurve.Stretch(res.CapacityRatio)
	res.MatchedT95 = res.MatchedCurve.TimeToFraction(0.95)
	res.MismatchT95 = res.MismatchCurve.TimeToFraction(0.95)

	// Fleet scale: the same push over a uniform fleet and over a
	// two-class fleet where cross-geometry boots replay the measured
	// mismatch curve.
	losses, err := parallel.MapErr(l.Cfg.Workers, 2, func(i int) (float64, error) {
		f, ticks, err := l.deploy(curves, 6*l.Cfg.Horizon, func(cfg *cluster.Config) {
			if i == 1 {
				cfg.GeometryClasses = 2
				cfg.CurveMismatch = res.MismatchCurve
			}
		})
		if err != nil {
			return 0, err
		}
		if i == 1 {
			res.MixedStats = f.ScenarioStats()
			res.Census = f.GeometryCensus()
		}
		return cluster.CapacityLoss(ticks, l.Cfg.FleetCfg.TickSeconds), nil
	})
	if err != nil {
		return res, err
	}
	res.UniformLoss, res.MixedLoss = losses[0], losses[1]
	return res, nil
}

// ScenarioFig runs the dynamic-traffic figure (cached).
func (l *Lab) ScenarioFig() (ScenarioResult, error) {
	return l.scenarioRes.get(struct{}{}, l.scenarioFig)
}

func (l *Lab) scenarioFig() (ScenarioResult, error) {
	curves, err := l.fleetCurves()
	if err != nil {
		return ScenarioResult{}, err
	}
	res := ScenarioResult{}

	// Part 1 — scenario grid: each kind with Jump-Start on and off.
	type gridRun struct {
		cell ScenarioCell
		fleetObs
	}
	horizon := 6 * l.Cfg.Horizon
	dt := l.Cfg.FleetCfg.TickSeconds
	runs, err := parallel.MapErr(l.Cfg.Workers, 2*len(scenarioKinds), func(i int) (gridRun, error) {
		kind := scenarioKinds[i/2]
		js := i%2 == 0
		eng, err := scenario.New(scenario.DefaultConfig(kind, l.Cfg.FleetCfg.Regions, horizon))
		if err != nil {
			return gridRun{}, err
		}
		f, ticks, err := l.deploy(curves, horizon, func(cfg *cluster.Config) {
			cfg.JumpStartEnabled = js
			// Absorbed boots warm under the failed-over region's load on
			// top of their own: every milestone lands ~1.5× later.
			cfg.CurveFailover = curves[0].Stretch(FailoverStretch)
			cfg.RecordSeries = true
			cfg.Scenario = eng
		})
		if err != nil {
			return gridRun{}, err
		}
		scenLoss := cluster.ScenarioCapacityLoss(ticks, dt)
		return gridRun{
			cell: ScenarioCell{
				Kind:      kind.String(),
				JumpStart: js,
				Loss:      cluster.CapacityLoss(ticks, dt),
				ScenLoss:  scenLoss,
				Stats:     f.ScenarioStats(),
			},
			fleetObs: observeFleet(f, dt, scenLoss),
		}, nil
	})
	if err != nil {
		return ScenarioResult{}, err
	}
	res.Report = obs.NewReport(l.WarmclassSLO())
	for _, run := range runs {
		res.Grid = append(res.Grid, run.cell)
		name := run.cell.Kind + "-nojs"
		if run.cell.JumpStart {
			name = run.cell.Kind + "-js"
		}
		run.addTo(res.Report.Regime(name))
	}

	// Part 2 — heterogeneous hardware.
	res.Geometry, err = l.measureGeometry(curves)
	if err != nil {
		return ScenarioResult{}, err
	}
	return res, nil
}

// WriteScenario renders the dynamic-traffic + heterogeneous-fleet
// figure.
func (l *Lab) WriteScenario(w io.Writer) error {
	res, err := l.ScenarioFig()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "## Scenario: dynamic traffic, failover drills, heterogeneous fleets")
	fmt.Fprintln(w, "scenario,jumpstart,capacity_loss_pct,demand_weighted_loss_pct,failover_boots,dark_ticks,peak_demand,trough_demand")
	for _, c := range res.Grid {
		fmt.Fprintf(w, "%s,%v,%.2f,%.2f,%d,%d,%.2f,%.2f\n",
			c.Kind, c.JumpStart, c.Loss*100, c.ScenLoss*100,
			c.Stats.FailoverBoots, c.Stats.DarkTicks,
			c.Stats.PeakDemand, c.Stats.TroughDemand)
	}
	g := res.Geometry
	fmt.Fprintf(w, "# geometry: big %.0f rps vs small %.0f rps warm capacity (ratio %.2f); payload-agnostic=%v\n",
		g.BigSteadyRPS, g.SmallSteadyRPS, g.CapacityRatio, g.PayloadAgnostic)
	fmt.Fprintf(w, "# geometry warmup: time-to-95%%: matched %.0fs, cross-geometry replay %.0fs\n",
		g.MatchedT95, g.MismatchT95)
	fmt.Fprintf(w, "# geometry fleet: uniform loss %.2f%%, two-class loss %.2f%% (%d mismatch boots, census %v)\n",
		g.UniformLoss*100, g.MixedLoss*100, g.MixedStats.MismatchBoots, g.Census)
	return l.writeSLOReport(w, res.Report)
}
