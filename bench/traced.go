package main

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"jumpstart/internal/obs"
	"jumpstart/internal/telemetry"
)

// opRun is one execution of an op with its host time and the garbage
// collections it triggered.
type opRun struct {
	res opResult
	sec float64
	gcs uint32
}

func timeOp(op opFunc, e *env, sz sizes, seed uint64, o opts) (opRun, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	res, err := op(e, sz, seed, o)
	sec := time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	return opRun{res, sec, after.NumGC - before.NumGC}, err
}

// bundle is the same op run three ways from the same seed: untraced,
// traced, and under variantOpts (one worker, replay off). The three
// digests must agree; the three host times give the tracing overhead
// and the replay / worker ratios.
type bundle struct {
	base, traced, variant opRun
	root                  int // the traced op's span
}

func runBundle(tr *tracer, name string, op opFunc, e *env, sz sizes, seed uint64) (bundle, error) {
	var b bundle
	var err error
	if b.base, err = timeOp(op, e, sz, seed, defaultOpts()); err != nil {
		return b, fmt.Errorf("%s: %w", name, err)
	}
	o := defaultOpts()
	o.tr = tr
	b.root = tr.begin(0, "bench", "op:"+name)
	o.parent = b.root
	b.traced, err = timeOp(op, e, sz, seed, o)
	tr.end(b.root)
	if err != nil {
		return b, fmt.Errorf("%s traced: %w", name, err)
	}
	if b.variant, err = timeOp(op, e, sz, seed, variantOpts()); err != nil {
		return b, fmt.Errorf("%s workers=1/replay=off: %w", name, err)
	}
	if b.traced.res.digest != b.base.res.digest {
		return b, fmt.Errorf("%s: traced digest differs from untraced", name)
	}
	if b.variant.res.digest != b.base.res.digest {
		return b, fmt.Errorf("%s: digest differs at workers=1/replay=off", name)
	}
	return b, nil
}

// under returns the spans recorded directly under root.
func under(spans []span, root int) []span {
	var out []span
	for _, s := range spans {
		if s.Parent == root {
			out = append(out, s)
		}
	}
	return out
}

// perRequest is the host µs per completed request over the ticks of
// one phase: tick spans and the op's tickDone line up one to one.
func perRequest(ticks []span, done []int, phase string) float64 {
	sec, reqs := 0.0, 0
	for i, s := range ticks {
		if s.Name == "tick:"+phase {
			sec += s.dur()
			reqs += done[i]
		}
	}
	if reqs == 0 {
		return 0
	}
	return sec / float64(reqs) * 1e6
}

func tickSpans(spans []span, layer string) []span {
	var out []span
	for _, s := range spans {
		if s.Layer == layer && strings.HasPrefix(s.Name, "tick:") {
			out = append(out, s)
		}
	}
	return out
}

func ms(xs []float64, q float64) float64 { return obs.Quantile(xs, q) * 1e3 }

// figureMetric maps a figure name to its *_alone_s metric.
func figureMetric(fig string) string {
	if len(fig) == 1 {
		fig = "fig" + fig
	}
	return "experiments." + fig + "_alone_s"
}

// layerMetrics turns each op's bundle into the per-layer metrics that
// op can explain. kinds are the workload names.
func layerMetrics(m metrics, kind string, b bundle, spans []span, e *env, sz sizes, seed uint64) error {
	kids := under(spans, b.root)
	counts := b.base.res.counts
	switch kind {
	case "figures_quick":
		// Each figure alone on its own fresh Lab: what the figure costs
		// when no other figure has filled a memo cell for it.
		sumAlone := 0.0
		for _, fig := range figureSet {
			cfg := e.cfg
			cfg.ServerCfg.Seed, cfg.FleetCfg.Seed = seed, seed
			lab := e.lab(cfg)
			var buf bytes.Buffer
			t0 := time.Now()
			if err := lab.WriteFigure(&buf, fig); err != nil {
				return err
			}
			sec := time.Since(t0).Seconds()
			m[figureMetric(fig)] = sec
			sumAlone += sec
		}
		m["experiments.memo_saving_ratio"] = sumAlone / b.base.sec

	case "cold_warmup":
		ticks := tickSpans(kids, "server")
		all := durations(ticks, "server", "")
		m["server.new_ms"] = ms(durations(kids, "server", "new"), 0.5)
		m["server.profiling_us_per_req"] = perRequest(ticks, b.traced.res.tickDone, "profiling")
		m["server.optimizing_us_per_req"] = perRequest(ticks, b.traced.res.tickDone, "optimizing")
		m["server.tick_ms_p50"] = ms(all, 0.5)
		m["server.tick_ms_p99"] = ms(all, 0.99)
		m["server.requests_completed"] = counts["requests_completed"]
		m["server.sim_capacity_loss_pct"] = counts["sim_capacity_loss_pct"]
		m["server.code_bytes"] = counts["code_bytes"]

	case "jumpstart_serve":
		ticks := tickSpans(kids, "server")
		init := total(durations(ticks, "server", "tick:init"))
		m["server.init_host_ms"] = init * 1e3
		m["server.serving_us_per_req"] = perRequest(ticks, b.traced.res.tickDone, "serving")
		m["jumpstart.boot_consumer_ms"] = (total(durations(kids, "jumpstart", "boot_consumer")) + init) * 1e3
		hits, misses := counts["replay.hits"], counts["replay.misses"]
		m["replay.hits"], m["replay.misses"], m["replay.entries"] = hits, misses, counts["replay.entries"]
		m["replay.hit_ratio"] = hits / (hits + misses)
		m["replay.off_on_wall_ratio"] = b.variant.sec / b.base.sec
		for _, k := range []string{"accesses", "l1i_miss_ratio", "itlb_miss_ratio", "branch_miss_ratio"} {
			m["microarch."+k] = counts["microarch."+k]
		}
		// The same op once more with the repo's own telemetry on.
		o := defaultOpts()
		o.telem = telemetry.NewSet()
		on, err := timeOp(opJumpStart, e, sz, seed, o)
		if err != nil {
			return err
		}
		if on.res.digest != b.base.res.digest {
			return fmt.Errorf("%s: digest differs with telemetry on", kind)
		}
		m["telemetry.on_off_wall_ratio"] = on.sec / b.base.sec

	case "fleet_direct":
		serverTicks := counts["servers"] * counts["ticks"]
		m["cluster.newfleet_ms"] = ms(durations(kids, "cluster", "newfleet"), 0.5)
		m["cluster.tick_ns_per_server_w2"] = b.base.sec / serverTicks * 1e9
		m["cluster.tick_ns_per_server_w1"] = b.variant.sec / serverTicks * 1e9
		m["cluster.worker_speedup"] = b.variant.sec / b.base.sec
		m["cluster.quiet_tick_ms_p50"] = ms(durations(kids, "cluster", "tick:quiet"), 0.5)

	case "fleet_store":
		m["cluster.deploy_tick_ms_p50"] = ms(durations(kids, "cluster", "tick:deploy"), 0.5)
		m["cluster.tick_ms_p99"] = ms(durations(tickSpans(kids, "cluster"), "cluster", ""), 0.99)
		m["cluster.sim_capacity_loss_pct"] = counts["sim_capacity_loss_pct"]
		m["cluster.fallbacks"] = counts["fallbacks"]
		m["cluster.crashes"] = counts["crashes"]
		m["cluster.remap_boots"] = counts["remap_boots"]
		m["multistore.failovers"] = counts["failovers"]
	}
	return nil
}

// steadyTicks is the host-time series of the traced op's ticks in the
// phase it ends in: serving for a server, quiet for a fleet. An op with
// no ticks has an empty series, which classifies as flat.
func steadyTicks(kids []span) []float64 {
	if s := durations(kids, "server", "tick:serving"); len(s) > 0 {
		return s
	}
	return durations(kids, "cluster", "tick:quiet")
}

// runTraced is the --trace 1 run. The workload's own op runs as a
// bundle at full size on its own environment; the other four ops run
// as bundles at the small reference size, so every layer is measured
// in every run and the layers this workload exercises are measured in
// place. Probes then call the lower layers directly.
func runTraced(w workloadSpec, rc runConfig) (report, error) {
	rep := report{Workload: w.name, Seed: rc.seed, Trace: true, Metrics: metrics{}}
	m := rep.Metrics
	tr := newTracer()

	id := tr.begin(0, "bench", "setup:"+w.name)
	own, err := w.setUp(rc.sz)
	tr.end(id)
	if err != nil {
		return rep, fmt.Errorf("set-up: %w", err)
	}
	m["workload.generate_site_ms"] = own.genSiteS * 1e3
	m["core.calibrate_s"] = own.calibrateS
	m["core.seed_package_s"] = own.seedPkgS

	// One small environment serves all four reference ops.
	refSz := smokeSizes()
	id = tr.begin(0, "bench", "setup:reference")
	ref, err := newEnv(refSz.quick)
	if err == nil {
		ref.publish()
		err = ref.measureFleetInputs()
	}
	tr.end(id)
	if err != nil {
		return rep, fmt.Errorf("reference set-up: %w", err)
	}

	var mine bundle
	for _, k := range workloads {
		e, sz := ref, refSz
		if k.name == w.name {
			e, sz = own, rc.sz
		}
		if k.name == w.name && w.warmUp {
			// The bundle's ratios are single samples: keep first-run
			// effects out of them, as the timed window does.
			if _, err := k.op(e, sz, rc.seed+warmSeed, defaultOpts()); err != nil {
				return rep, fmt.Errorf("warm-up op: %w", err)
			}
		}
		tr.op++
		// A bundle that fails leaves its layers unmeasured, so the run
		// has no result to print: any failure here is fatal.
		b, err := runBundle(tr, k.name, k.op, e, sz, rc.seed)
		if err != nil {
			return rep, err
		}
		rep.Attempted += 3
		if k.name == w.name {
			mine = b
		}
		if err := layerMetrics(m, k.name, b, tr.snapshot(), e, sz, rc.seed); err != nil {
			return rep, err
		}
	}

	tr.op++
	id = tr.begin(0, "bench", "probes")
	err = runProbes(m, own, rc)
	tr.end(id)
	if err != nil {
		return rep, err
	}

	spans := tr.snapshot()
	kids := under(spans, mine.root)
	rootSpan := spans[mine.root-1]
	m["bench.trace_overhead_pct"] = (mine.traced.sec - mine.base.sec) / mine.base.sec * 100
	m["bench.driver_self_pct"] = selfTimes(spans)[mine.root-1] / rootSpan.dur() * 100
	m["bench.gc_cycles_per_op"] = float64(mine.base.gcs)
	m["bench.series_flat"] = 0
	if c := obs.Classify(steadyTicks(kids), 1); c.Label == obs.LabelFlat {
		m["bench.series_flat"] = 1
	} else {
		fmt.Fprintf(rc.log, "# WARNING %s: per-tick host-time series of the traced op is %s, not flat\n",
			w.name, c.Label)
	}
	rep.N = 1
	rep.SimDigest = hex.EncodeToString(mine.base.res.digest[:])
	writeBudget(rc.log, w.name, budget(spans, mine.root))
	if err := writeSpans(filepath.Join(rc.outDir, "trace-"+w.name+".jsonl"), spans); err != nil {
		return rep, err
	}
	return rep, nil
}
