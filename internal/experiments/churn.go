package experiments

import (
	"fmt"
	"io"

	"jumpstart/internal/cluster"
	"jumpstart/internal/core"
	"jumpstart/internal/jumpstart"
	"jumpstart/internal/prof"
	"jumpstart/internal/release"
	"jumpstart/internal/server"
)

// churnRates are the mutation rates the churn figure sweeps: a routine
// push touching a few percent of the site, and a heavy refactor-style
// push. churnCadences multiply the warmup horizon into push intervals.
var (
	churnRates    = []float64{0.05, 0.25}
	churnCadences = []float64{2, 4}
)

// ChurnRate is everything measured once per mutation rate: the mutated
// revision chain, the real remap statistics across its boundaries, and
// the warmup of a consumer booted on the new revision from the
// remapped package.
type ChurnRate struct {
	Rate  float64
	Stats release.MutationStats // mutations applied at rev 0 -> 1
	// Remap1 is the rev0->rev1 remap of the seeded package; Remap2
	// chains the remapped profile onto rev2 (hit rate decays as churn
	// accumulates across un-reseeded pushes).
	Remap1, Remap2 prof.RemapStats
	// LossRemapped is the capacity loss of a consumer booted on the
	// rev1 site from the remapped package, normalized like Figure 4.
	LossRemapped float64
	// Curve is that consumer's measured warmup curve — what the fleet
	// simulator replays for remapped boots.
	Curve cluster.WarmupCurve
}

// ChurnPoint is one fleet comparison at a (rate, cadence) cell.
type ChurnPoint struct {
	Rate    float64
	Cadence float64 // push interval, virtual seconds
	// Fleet capacity losses over the same window under each store
	// compatibility policy.
	LossExactOnly     float64
	LossRemapTolerant float64
	Gap               float64 // LossExactOnly - LossRemapTolerant
	// Pushes completed within the window (pushes defer while a
	// deployment is still recovering, so a policy that warms the fleet
	// faster also sustains the cadence better).
	PushesExactOnly     uint64
	PushesRemapTolerant uint64
	RemapBoots          int // boots served from remapped packages
	PkgKept, PkgLost    int // package fate across pushes (remap-tolerant run)
}

// ChurnResult is the continuous-deployment churn experiment.
type ChurnResult struct {
	// Single-server reference losses on the base revision (same
	// normalization as the per-rate remapped losses).
	LossExact float64 // consumer with an exact package
	LossCold  float64 // no-Jump-Start boot
	Rates     []ChurnRate
	Points    []ChurnPoint
}

// Churn measures what code churn does to Jump-Start. For each mutation
// rate it evolves the site through the release mutator, remaps the
// seeded package across the revision boundary with prof.Remap
// (recording the real exact/renamed/fuzzy/dropped split), and boots a
// consumer on the mutated site from the remapped package to measure
// how much warmup benefit survives. The fleet simulator then replays
// continuous pushes at each cadence under both store compatibility
// policies, using the measured hit rate and the measured remapped
// warmup curve. Cached after the first call.
func (l *Lab) Churn() (ChurnResult, error) {
	return l.churnRes.get(struct{}{}, l.churn)
}

func (l *Lab) churn() (ChurnResult, error) {
	steady, err := l.SteadyRPS()
	if err != nil {
		return ChurnResult{}, err
	}
	exact, err := l.warmup(core.FullJumpStart(), l.Cfg.Horizon)
	if err != nil {
		return ChurnResult{}, err
	}
	cold, err := l.warmup(core.Variant{}, l.Cfg.Horizon)
	if err != nil {
		return ChurnResult{}, err
	}
	res := ChurnResult{
		LossExact: exact.CapacityLoss,
		LossCold:  cold.CapacityLoss,
	}

	for _, rate := range churnRates {
		cr, err := l.churnRate(rate, steady)
		if err != nil {
			return ChurnResult{}, err
		}
		res.Rates = append(res.Rates, cr)
	}

	curves, err := l.fleetCurves()
	if err != nil {
		return ChurnResult{}, err
	}
	for _, cr := range res.Rates {
		for _, mult := range churnCadences {
			pt, err := l.churnFleets(cr, mult*l.Cfg.Horizon, curves)
			if err != nil {
				return ChurnResult{}, err
			}
			res.Points = append(res.Points, pt)
		}
	}
	return res, nil
}

// MeasureChurn measures a single churn rate: the revision chain, the
// remap statistics, and the remapped consumer's warmup curve.
// cmd/fleetsim uses it to wire -churn without running the full sweep.
func (l *Lab) MeasureChurn(rate float64) (ChurnRate, error) {
	steady, err := l.SteadyRPS()
	if err != nil {
		return ChurnRate{}, err
	}
	return l.churnRate(rate, steady)
}

// churnRate evolves the site two revisions at the given mutation rate
// and measures the remap cascade and the remapped consumer's warmup.
func (l *Lab) churnRate(rate, steady float64) (ChurnRate, error) {
	base := l.Scenario.Site
	chain, err := release.NewChain(base, release.ChurnConfig{Seed: l.Cfg.FleetCfg.Seed, Rate: rate})
	if err != nil {
		return ChurnRate{}, err
	}
	rev1, err := chain.Next()
	if err != nil {
		return ChurnRate{}, err
	}
	rev2, err := chain.Next()
	if err != nil {
		return ChurnRate{}, err
	}

	pkg := l.clonePkg()
	pkg.Meta.Revision = int64(chain.Rev(0).Checksum)
	remapped, stats1 := prof.Remap(pkg, chain.Rev(0).Prog, rev1.Prog, int64(rev1.Checksum))
	_, stats2 := prof.Remap(remapped, rev1.Prog, rev2.Prog, int64(rev2.Checksum))

	site1, err := rev1.Site(base)
	if err != nil {
		return ChurnRate{}, err
	}
	sc := core.Scenario{Site: site1, ServerCfg: l.Scenario.ServerCfg}
	srv, err := sc.ServerFor(core.FullJumpStart(), remapped)
	if err != nil {
		return ChurnRate{}, fmt.Errorf("experiments: remapped consumer boot (rate %.2f): %w", rate, err)
	}
	ticks := srv.Run(l.Cfg.Horizon)
	return ChurnRate{
		Rate:         rate,
		Stats:        rev1.Stats,
		Remap1:       stats1,
		Remap2:       stats2,
		LossRemapped: server.CapacityLoss(ticks, steady),
		Curve:        cluster.CurveFromTicks(ticks, steady),
	}, nil
}

// churnFleets runs the continuous-push fleet at one cadence under both
// policies. The deployment schedule is deliberately aggressive — the
// C2 soak is shorter than seeding, so under exact-only the early C3
// waves find an empty store and boot cold; under remap-tolerant they
// boot from remapped packages instead.
func (l *Lab) churnFleets(cr ChurnRate, cadence float64, curves [2]cluster.WarmupCurve) (ChurnPoint, error) {
	run := func(policy jumpstart.CompatPolicy) (*cluster.Fleet, []cluster.FleetTick, error) {
		return l.deploy(curves, 8*l.Cfg.Horizon, func(cfg *cluster.Config) {
			cfg.CurveRemapped = cr.Curve
			cfg.C1Hold = 30
			cfg.C2Hold = 60
			cfg.PushEvery = cadence
			cfg.RemapPolicy = policy
			cfg.RemapHitRate = cr.Remap1.HitRate()
		})
	}
	fe, te, err := run(jumpstart.ExactOnly)
	if err != nil {
		return ChurnPoint{}, err
	}
	fr, tr, err := run(jumpstart.RemapTolerant)
	if err != nil {
		return ChurnPoint{}, err
	}
	dt := l.Cfg.FleetCfg.TickSeconds
	kept, lost := fr.PackageChurn()
	pt := ChurnPoint{
		Rate:                cr.Rate,
		Cadence:             cadence,
		LossExactOnly:       cluster.CapacityLoss(te, dt),
		LossRemapTolerant:   cluster.CapacityLoss(tr, dt),
		PushesExactOnly:     fe.Revision() - 1,
		PushesRemapTolerant: fr.Revision() - 1,
		RemapBoots:          fr.RemapBoots(),
		PkgKept:             kept,
		PkgLost:             lost,
	}
	pt.Gap = pt.LossExactOnly - pt.LossRemapTolerant
	return pt, nil
}

// WriteChurn renders the churn figure.
func (l *Lab) WriteChurn(w io.Writer) error {
	res, err := l.Churn()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "## Churn: cross-release profile remapping under continuous deployment")
	fmt.Fprintf(w, "# single-server warmup loss on the base revision: exact_package=%.1f%% cold=%.1f%%\n",
		res.LossExact*100, res.LossCold*100)
	fmt.Fprintln(w, "rate,edits,structural,remap_exact,remap_renamed,remap_fuzzy,remap_dropped,hit1_pct,hit2_pct,loss_remapped_pct")
	for _, cr := range res.Rates {
		structural := cr.Stats.FuncsAdded + cr.Stats.FuncsRemoved + cr.Stats.FuncsRenamed + cr.Stats.PropReorders
		fmt.Fprintf(w, "%.2f,%d,%d,%d,%d,%d,%d,%.1f,%.1f,%.1f\n",
			cr.Rate, cr.Stats.ConstTweaks+cr.Stats.StmtInserts, structural,
			cr.Remap1.Exact, cr.Remap1.Renamed, cr.Remap1.Fuzzy,
			cr.Remap1.Dropped+cr.Remap1.Ambiguous,
			cr.Remap1.HitRate()*100, cr.Remap2.HitRate()*100, cr.LossRemapped*100)
	}
	fmt.Fprintln(w, "rate,cadence_s,fleet_exact_only_pct,fleet_remap_tolerant_pct,gap_pct,pushes_exact,pushes_remap,remap_boots,pkgs_kept,pkgs_lost")
	for _, pt := range res.Points {
		fmt.Fprintf(w, "%.2f,%.0f,%.2f,%.2f,%.2f,%d,%d,%d,%d,%d\n",
			pt.Rate, pt.Cadence, pt.LossExactOnly*100, pt.LossRemapTolerant*100,
			pt.Gap*100, pt.PushesExactOnly, pt.PushesRemapTolerant,
			pt.RemapBoots, pt.PkgKept, pt.PkgLost)
	}
	fmt.Fprintln(w, "# gap > 0: remap-tolerant recovers warmup benefit exact-only forfeits at each push")
	fmt.Fprintln(w)
	return nil
}
