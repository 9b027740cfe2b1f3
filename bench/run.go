package main

import (
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"syscall"
	"time"

	"jumpstart/internal/obs"
)

// runConfig is one child run's settings.
type runConfig struct {
	sz      sizes
	seed    uint64
	seconds float64 // length of the timed window
	// setUps is how many times set-up is repeated (setup_s is their
	// median); maxOps > 0 cuts the window after that many ops. -smoke
	// sets both to 1.
	setUps, maxOps int
	// probeDiv divides probe iteration targets (1 at full scale).
	probeDiv int
	outDir   string // where the traced run writes its spans
	log      io.Writer
}

// report is the full record of one child run; the result line is its
// contract-shaped subset.
type report struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Trace     bool      `json:"trace"`
	SimDigest string    `json:"sim_digest"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	N         int       `json:"n"` // ops in the timed window
	OpMS      []float64 `json:"op_ms,omitempty"`
	Series    string    `json:"series_label,omitempty"`
	Metrics   metrics   `json:"metrics"`
}

// warmSeed offsets the warm-up op's seed away from the window's.
const warmSeed = 1 << 40

// variantOpts is the configuration every op's digest is re-checked
// under: one worker, translation replay off.
func variantOpts() opts { return opts{workers: 1, replay: false} }

// runTimed is the --trace 0 run: set-up (timed, repeated), optional
// warm-up op, the timed window with tracing off, then one op re-run
// under variantOpts whose digest must match.
func runTimed(w workloadSpec, rc runConfig) (report, error) {
	rep := report{Workload: w.name, Seed: rc.seed, Metrics: metrics{}}
	var e *env
	var setupS []float64
	for i := 0; i < rc.setUps; i++ {
		t0 := time.Now()
		var err error
		if e, err = w.setUp(rc.sz); err != nil {
			return rep, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	if w.warmUp {
		if _, err := w.op(e, rc.sz, rc.seed+warmSeed, defaultOpts()); err != nil {
			return rep, fmt.Errorf("warm-up op: %w", err)
		}
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var opS []float64
	var events int64
	var first opResult
	for i, start := 0, time.Now(); ; i++ {
		t0 := time.Now()
		res, err := w.op(e, rc.sz, rc.seed+uint64(i), defaultOpts())
		opS = append(opS, time.Since(t0).Seconds())
		rep.Attempted++
		if err != nil {
			rep.Failed++
			fmt.Fprintf(rc.log, "# FAILED op %d of %s: %v\n", i, w.name, err)
		}
		events += res.events
		if i == 0 {
			first = res
		}
		if i+1 == rc.maxOps || (rc.maxOps == 0 && time.Since(start).Seconds() >= rc.seconds) {
			break
		}
	}
	runtime.ReadMemStats(&after)

	rep.Attempted++
	if v, err := w.op(e, rc.sz, rc.seed, variantOpts()); err != nil || v.digest != first.digest {
		rep.Failed++
		fmt.Fprintf(rc.log, "# FAILED determinism of %s: workers=1/replay=off digest %x vs %x (err %v)\n",
			w.name, v.digest[:6], first.digest[:6], err)
	}

	n := float64(len(opS))
	rep.N = len(opS)
	rep.SimDigest = hex.EncodeToString(first.digest[:])
	for _, s := range opS {
		rep.OpMS = append(rep.OpMS, s*1e3)
	}
	rep.Series = obs.Classify(opS, 1).Label.String()
	if rep.Series != obs.LabelFlat.String() {
		fmt.Fprintf(rc.log, "# WARNING %s: per-op host-time series is %s, not flat (n=%d): %.1f ms\n",
			w.name, rep.Series, rep.N, rep.OpMS)
	}
	rep.Metrics["setup_s"] = median(setupS)
	rep.Metrics["op_ms_p50"] = median(opS) * 1e3
	rep.Metrics["sim_events_per_s"] = float64(events) / total(opS)
	rep.Metrics["alloc_mb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / n / 1e6
	rep.Metrics["allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / n
	rss, err := peakRSSMB()
	if err != nil {
		return rep, err
	}
	rep.Metrics["peak_rss_mb"] = rss
	return rep, nil
}

// peakRSSMB is the process's high-water resident set: ru_maxrss, which
// Linux reports in KiB and keeps as VmHWM.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}

// printReport writes every metric by name with its unit, then the
// digest, for a human.
func printReport(w io.Writer, defs []metricDef, rep report) {
	fmt.Fprintf(w, "# %s seed=%d trace=%v ops=%d attempted=%d failed=%d\n",
		rep.Workload, rep.Seed, rep.Trace, rep.N, rep.Attempted, rep.Failed)
	for _, d := range defs {
		if v, ok := rep.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "%-40s %16.6g %s\n", d.Name, v, d.Unit)
		}
	}
	fmt.Fprintf(w, "sim_digest %s %s\n", rep.Workload, rep.SimDigest)
}
