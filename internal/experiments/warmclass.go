package experiments

import (
	"fmt"
	"io"

	"jumpstart/internal/cluster"
	"jumpstart/internal/obs"
	"jumpstart/internal/parallel"
	"jumpstart/internal/telemetry"
)

// warmclassRegimes are the fleet configurations the warmclass figure
// compares. Each starts from the Lab's fleet config; the mutator turns
// it into the regime.
var warmclassRegimes = []struct {
	name      string
	configure func(*cluster.Config)
}{
	{"jumpstart", func(c *cluster.Config) { c.JumpStartEnabled = true }},
	{"nojumpstart", func(c *cluster.Config) { c.JumpStartEnabled = false }},
	{"defects", func(c *cluster.Config) {
		// The Reliability experiment's defect model (half the seeded
		// packages crash-inducing, validation catches 80%), but with a
		// longer fuse: 90s of uptime per crash cycle spans enough
		// capacity samples that PELT resolves each ramp-and-collapse
		// into its own segments instead of averaging the whole loop
		// into one low-mean prefix, so crash-looping servers label
		// non-monotonic rather than warmup.
		c.JumpStartEnabled = true
		c.DefectRate = 0.5
		c.ValidationCatchRate = 0.8
		c.CrashDelay = 90
	}},
}

// fleetObs is one finished fleet's SLO observations, gathered on the
// worker that ran it; addTo rolls them into a report regime.
type fleetObs struct {
	classes []obs.Classification
	bootLat []float64
	reasons []cluster.ReasonCount
	loss    float64
}

// observeFleet classifies every server's recorded warmup series (the
// fleet ran with Config.RecordSeries) and keeps its boot latencies,
// fallback tally and the given capacity loss.
func observeFleet(f *cluster.Fleet, dt, loss float64) fleetObs {
	o := fleetObs{bootLat: f.BootLatencies(), reasons: f.FallbackReasons(), loss: loss}
	for _, xs := range f.WarmupSeries() {
		o.classes = append(o.classes, obs.Classify(xs, dt))
	}
	return o
}

// addTo feeds the observations into rg.
func (o fleetObs) addTo(rg *obs.Regime) {
	for _, c := range o.classes {
		rg.AddClassification(c)
	}
	for _, lat := range o.bootLat {
		rg.AddBootLatency(lat)
	}
	for _, rc := range o.reasons {
		rg.AddFallback(rc.Reason.String(), rc.Count)
	}
	rg.SetCapacityLoss(o.loss)
}

// warmclassRun is one regime's observations plus its span check.
type warmclassRun struct {
	fleetObs
	check obs.SpanCheck
}

// WarmclassResult is the changepoint warmup-classification figure: each
// regime's per-server curve labels, boot-latency and time-to-steady
// quantiles, fallback tallies and SLO verdicts, plus the merged
// span-conservation check across every regime's boot trace.
type WarmclassResult struct {
	Report *obs.Report
	Check  obs.SpanCheck
}

// WarmclassSLO is the objective the regimes are judged against, derived
// from the experiment scale: a boot (restart gap + warmup) must finish
// within the long warmup horizon at p99, warmup itself must reach
// steady capacity within the short horizon at p95, and the fleet may
// lose at most 10% of ideal capacity over the deployment.
func (l *Lab) WarmclassSLO() obs.SLO {
	return obs.SLO{
		BootP99:         l.Cfg.LongHorizon,
		TimeToSteadyP95: l.Cfg.Horizon,
		CapacityLoss:    0.10,
	}
}

// Warmclass deploys the fleet under each regime with per-server
// capacity series and span tracing on, classifies every server's
// post-boot curve with PELT changepoint detection, and rolls the
// results into a fleet SLO report (cached after the first call).
func (l *Lab) Warmclass() (WarmclassResult, error) {
	return l.warmclassRes.get(struct{}{}, l.warmclass)
}

func (l *Lab) warmclass() (WarmclassResult, error) {
	curves, err := l.fleetCurves()
	if err != nil {
		return WarmclassResult{}, err
	}
	// The three regime deployments are independent deterministic runs:
	// fan them out and merge in regime order.
	runs, err := parallel.MapErr(l.Cfg.Workers, len(warmclassRegimes), func(i int) (warmclassRun, error) {
		// A private trace per run (runs fanned out across workers must
		// not race), roomy enough to keep every boot span to validation.
		tel := &telemetry.Set{Trace: telemetry.NewTrace(telemetry.SpanTraceCapacity)}
		f, ticks, err := l.deploy(curves, 6*l.Cfg.Horizon, func(cfg *cluster.Config) {
			cfg.RecordSeries = true
			cfg.Telem = tel
			warmclassRegimes[i].configure(cfg)
		})
		if err != nil {
			return warmclassRun{}, err
		}
		dt := l.Cfg.FleetCfg.TickSeconds
		return warmclassRun{
			fleetObs: observeFleet(f, dt, cluster.CapacityLoss(ticks, dt)),
			check:    obs.ValidateSpans(tel.Trace.Events()),
		}, nil
	})
	if err != nil {
		return WarmclassResult{}, err
	}

	res := WarmclassResult{Report: obs.NewReport(l.WarmclassSLO())}
	for i, run := range runs {
		run.addTo(res.Report.Regime(warmclassRegimes[i].name))
		res.Check.Spans += run.check.Spans
		res.Check.Instants += run.check.Instants
		res.Check.Roots += run.check.Roots
		res.Check.Orphans += run.check.Orphans
		for _, v := range run.check.Violations {
			res.Check.Violations = append(res.Check.Violations,
				warmclassRegimes[i].name+": "+v)
		}
	}
	res.Report.AttachSpanCheck(res.Check)
	return res, nil
}

// WriteWarmclass renders the warmclass figure.
func (l *Lab) WriteWarmclass(w io.Writer) error {
	res, err := l.Warmclass()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "## Warmclass: changepoint warmup classification + fleet SLO report")
	return l.writeSLOReport(w, res.Report)
}

// writeSLOReport prints the SLO every report is judged against, rep's
// per-regime verdicts and the overall verdict: the tail of each figure
// that builds a fleet SLO report.
func (l *Lab) writeSLOReport(w io.Writer, rep *obs.Report) error {
	slo := l.WarmclassSLO()
	fmt.Fprintf(w, "# slo: boot-p99 <= %.0fs, time-to-steady-p95 <= %.0fs, capacity-loss <= %.0f%%\n",
		slo.BootP99, slo.TimeToSteadyP95, slo.CapacityLoss*100)
	if err := rep.WriteText(w); err != nil {
		return err
	}
	status := "PASS"
	if !rep.Passed() {
		status = "FAIL"
	}
	fmt.Fprintf(w, "# overall: %s\n\n", status)
	return nil
}
