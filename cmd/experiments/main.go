// Command experiments regenerates the paper's evaluation figures from
// the simulation, printing the same rows/series the paper reports.
// Figures run concurrently on the parallel engine (internal/parallel);
// output is byte-identical at every -workers value.
//
// Usage:
//
//	experiments -fig all            # everything (slow)
//	experiments -fig 1              # Figure 1: code size over time
//	experiments -fig 2              # Figure 2: restart capacity loss
//	experiments -fig 4              # Figures 4a/4b: warmup comparison
//	experiments -fig 5              # Figure 5: steady-state + µarch
//	experiments -fig 6              # Figure 6: optimization ablations
//	experiments -fig lifespan       # §II-B lifespan fractions
//	experiments -fig reliability    # §VI crash-loop dynamics
//	experiments -fig fleet          # C1/C2/C3 fleet deployment
//	experiments -fig churn          # continuous deployment + cross-release remap
//	experiments -fig regions        # multi-region stores + seeder aggregation
//	experiments -fig warmclass      # changepoint warmup classification + SLO report
//	experiments -fig pool           # standby warm pool + lazy package paging
//	experiments -fig scenario       # dynamic traffic + heterogeneous fleets
//	experiments -tune               # SLO-driven policy autotuner (successive halving)
//	experiments -quick              # reduced scale (faster, noisier)
//	experiments -workers 1          # sequential (byte-identical output)
//	experiments -sweep 5 -seed 42   # 5-seed repetition study (mean/min/max)
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"jumpstart/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// labConfig resolves the measurement configuration. It is a variable
// so the smoke test can substitute a micro-scale config; full-scale
// figure generation is far too slow for the test suite.
var labConfig = func(quick bool) experiments.Config {
	if quick {
		return experiments.Quick()
	}
	return experiments.Default()
}

// run executes the harness; main is only flag-error plumbing so tests
// can drive the binary end to end in-process.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fig := fs.String("fig", "all", "which figure to regenerate (1, 2, 4, 5, 6, lifespan, reliability, fleet, brownout, churn, regions, warmclass, pool, scenario, all)")
	quick := fs.Bool("quick", false, "use the reduced-scale configuration")
	workers := fs.Int("workers", 0, "parallel fan-out width (<= 0: one worker per CPU)")
	sweep := fs.Int("sweep", 0, "run an N-seed sweep of the headline metrics instead of single-seed figures")
	seed := fs.Uint64("seed", 1, "base seed for -sweep (per-seed streams are forked from it)")
	tune := fs.Bool("tune", false, "run the SLO-driven policy autotuner instead of figures")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sweep < 0 {
		return fmt.Errorf("-sweep must be >= 0 (see experiments -h for usage)")
	}
	if *fig != "all" && !experiments.KnownFigure(*fig) {
		return fmt.Errorf("unknown figure %q (see experiments -h for usage)", *fig)
	}
	if *tune && *sweep > 0 {
		return fmt.Errorf("-tune and -sweep are mutually exclusive (see experiments -h for usage)")
	}

	cfg := labConfig(*quick)
	cfg.Workers = *workers

	out := bufio.NewWriter(stdout)
	defer out.Flush()

	fmt.Fprintf(out, "# HHVM Jump-Start reproduction — experiment harness\n")
	fmt.Fprintf(out, "# site: %d units, horizon %.0fs (quick=%v, workers=%d)\n",
		cfg.SiteCfg.Units, cfg.Horizon, *quick, *workers)

	if *sweep > 0 {
		fmt.Fprintf(out, "# sweeping %d seeds from base %d...\n\n", *sweep, *seed)
		out.Flush()
		res, err := experiments.Sweep(cfg, *seed, *sweep)
		if err != nil {
			return err
		}
		experiments.WriteSweep(out, res)
		return nil
	}

	figs := []string{*fig}
	if *fig == "all" {
		figs = experiments.FigureOrder
	}
	fmt.Fprintf(out, "# building site and seeding profile package...\n\n")
	out.Flush()

	lab, err := experiments.NewLab(cfg)
	if err != nil {
		return err
	}
	if *tune {
		return lab.WriteTune(out)
	}
	return lab.RunFigures(out, figs, cfg.Workers)
}
