package experiments

import (
	"fmt"
	"io"

	"jumpstart/internal/autotune"
	"jumpstart/internal/cluster"
	"jumpstart/internal/jumpstart"
	"jumpstart/internal/obs"
	"jumpstart/internal/parallel"
	"jumpstart/internal/scenario"
)

// tuneRemapHitRate stands in for a measured remap survival rate under
// the tuner's churn assumption (a moderate push-to-push mutation; the
// churn figure measures the full curve). Using a constant keeps every
// candidate comparable without re-running the remapper per evaluation.
const tuneRemapHitRate = 0.7

// TuneCompareCell is one (scenario, policy) verification run at full
// fidelity.
type TuneCompareCell struct {
	Scenario   string
	Policy     string // "default" or "tuned"
	Knobs      autotune.Knobs
	CapLossP99 float64
	ScenLoss   float64
	TTSP95     float64
}

// TuneResult is the SLO-driven policy search: the ranked candidate
// table plus a default-vs-winner verification across every scenario.
type TuneResult struct {
	Ranked  []autotune.Result
	Best    autotune.Knobs
	Default autotune.Knobs
	Compare []TuneCompareCell
}

// tuneGrid spans the policy knobs the search explores. PushEvery is
// sized from the lab horizon so the cadence pressure scales with the
// configured fidelity.
func (l *Lab) tuneGrid() autotune.Grid {
	h := l.Cfg.Horizon
	base := autotune.Knobs{
		PushEvery:    1.5 * h,
		CompatPolicy: jumpstart.ExactOnly,
		WarmupMode:   jumpstart.WarmupEager,
	}
	return autotune.Grid{
		Base:      base,
		PushEvery: []float64{1.5 * h, 3 * h},
		CompatPolicy: []jumpstart.CompatPolicy{
			jumpstart.ExactOnly, jumpstart.RemapTolerant,
		},
		PoolSize:   []int{0, 32},
		WarmupMode: []jumpstart.WarmupMode{jumpstart.WarmupEager, jumpstart.WarmupLazy},
	}
}

// tuneObjective scores candidates on the p99 demand-weighted shortfall
// with a small tie-breaking weight on the time-to-steady tail.
func (l *Lab) tuneObjective() autotune.Objective {
	return autotune.Objective{
		LossWeight:   1,
		SteadyWeight: 0.1,
		SteadyNorm:   l.Cfg.Horizon,
	}
}

// tuneEvaluate runs one candidate's fleet simulation under the given
// scenario kind for a budget-scaled slice of the full horizon and
// returns the SLO-facing measurement.
func (l *Lab) tuneEvaluate(k autotune.Knobs, kind scenario.Kind, budget float64,
	curves [2]cluster.WarmupCurve, lazyCurve cluster.WarmupCurve) (autotune.Measurement, error) {
	full := 6 * l.Cfg.Horizon
	dur := budget * full
	// A run shorter than one push cycle measures nothing: floor the
	// budget slice at the C1+C2 soak plus one horizon of C3 fallout.
	if min := l.Cfg.FleetCfg.C1Hold + l.Cfg.FleetCfg.C2Hold + l.Cfg.Horizon; dur < min {
		dur = min
	}
	eng, err := scenario.New(scenario.DefaultConfig(kind, l.Cfg.FleetCfg.Regions, dur))
	if err != nil {
		return autotune.Measurement{}, err
	}
	f, ticks, err := l.deploy(curves, dur, func(cfg *cluster.Config) {
		// Candidate evaluations already fan out across workers; keep each
		// simulation single-threaded.
		cfg.Workers = 1
		cfg.RecordSeries = true
		cfg.PushEvery = k.PushEvery
		cfg.RemapPolicy = k.CompatPolicy
		if k.CompatPolicy == jumpstart.RemapTolerant {
			cfg.RemapHitRate = tuneRemapHitRate
		}
		cfg.PoolSize = k.PoolSize
		cfg.WarmupMode = k.WarmupMode
		if k.WarmupMode == jumpstart.WarmupLazy {
			cfg.CurveLazy = lazyCurve
		}
		cfg.Scenario = eng
		cfg.CurveFailover = curves[0].Stretch(FailoverStretch)
	})
	if err != nil {
		return autotune.Measurement{}, err
	}
	shortfall := make([]float64, len(ticks))
	for i, t := range ticks {
		shortfall[i] = 1 - t.ScenCapacity
	}
	return autotune.Measurement{
		CapLossP99:      obs.Quantile(shortfall, 0.99),
		CapLossMean:     cluster.ScenarioCapacityLoss(ticks, l.Cfg.FleetCfg.TickSeconds),
		TimeToSteadyP95: obs.Quantile(f.TimesToSteady(), 0.95),
		Crashes:         f.Crashes(),
		Fallbacks:       f.Fallbacks(),
	}, nil
}

// Tune runs the SLO-driven policy autotuner (cached): a successive-
// halving search over the knob grid under the diurnal scenario, then a
// full-fidelity default-vs-winner verification on every scenario kind.
func (l *Lab) Tune() (TuneResult, error) {
	return l.tuneRes.get(struct{}{}, l.tune)
}

func (l *Lab) tune() (TuneResult, error) {
	curves, err := l.fleetCurves()
	if err != nil {
		return TuneResult{}, err
	}
	// The lazy candidates replay the healthy-network lazy curve.
	lazy, err := l.MeasureLazyCurve(l.lazyNetworks()[0])
	if err != nil {
		return TuneResult{}, err
	}
	grid := l.tuneGrid()
	ranked, err := autotune.Search(autotune.Config{
		Grid:      grid,
		Objective: l.tuneObjective(),
		Eta:       3,
		Workers:   l.Cfg.Workers,
	}, func(k autotune.Knobs, budget float64) (autotune.Measurement, error) {
		return l.tuneEvaluate(k, scenario.Diurnal, budget, curves, lazy.Curve)
	})
	if err != nil {
		return TuneResult{}, err
	}
	res := TuneResult{
		Ranked:  ranked,
		Best:    ranked[0].Knobs,
		Default: grid.Base,
	}

	// Full-fidelity verification: the winner vs the default policy on
	// every scenario kind. Independent runs — fan out, merge in order.
	policies := []struct {
		name  string
		knobs autotune.Knobs
	}{
		{"default", res.Default},
		{"tuned", res.Best},
	}
	cells, err := parallel.MapErr(l.Cfg.Workers, len(scenarioKinds)*len(policies),
		func(i int) (TuneCompareCell, error) {
			kind := scenarioKinds[i/len(policies)]
			pol := policies[i%len(policies)]
			m, err := l.tuneEvaluate(pol.knobs, kind, 1, curves, lazy.Curve)
			if err != nil {
				return TuneCompareCell{}, err
			}
			return TuneCompareCell{
				Scenario:   kind.String(),
				Policy:     pol.name,
				Knobs:      pol.knobs,
				CapLossP99: m.CapLossP99,
				ScenLoss:   m.CapLossMean,
				TTSP95:     m.TimeToSteadyP95,
			}, nil
		})
	if err != nil {
		return TuneResult{}, err
	}
	res.Compare = cells
	return res, nil
}

// WriteTune renders the policy-autotuner recommendation table.
func (l *Lab) WriteTune(w io.Writer) error {
	res, err := l.Tune()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "## Tune: SLO-driven policy search (successive halving, diurnal scenario)")
	fmt.Fprintln(w, "rank,knobs,score,cap_loss_p99_pct,cap_loss_mean_pct,tts_p95_s,rounds,budget,dominated")
	for i, r := range res.Ranked {
		fmt.Fprintf(w, "%d,%s,%.4f,%.2f,%.2f,%.0f,%d,%.3f,%v\n",
			i+1, r.Knobs, r.Score, r.Meas.CapLossP99*100, r.Meas.CapLossMean*100,
			r.Meas.TimeToSteadyP95, r.Rounds, r.Budget, r.Dominated)
	}
	fmt.Fprintf(w, "# recommendation: %s\n", res.Best)
	fmt.Fprintln(w, "scenario,policy,cap_loss_p99_pct,demand_weighted_loss_pct,tts_p95_s")
	beats := 0
	var defaults = map[string]float64{}
	for _, c := range res.Compare {
		fmt.Fprintf(w, "%s,%s,%.2f,%.2f,%.0f\n",
			c.Scenario, c.Policy, c.CapLossP99*100, c.ScenLoss*100, c.TTSP95)
		if c.Policy == "default" {
			defaults[c.Scenario] = c.CapLossP99
		}
	}
	for _, c := range res.Compare {
		if c.Policy == "tuned" && c.CapLossP99 < defaults[c.Scenario] {
			beats++
		}
	}
	fmt.Fprintf(w, "# tuned beats default p99 capacity loss on %d/%d scenarios\n\n",
		beats, len(scenarioKinds))
	return nil
}
