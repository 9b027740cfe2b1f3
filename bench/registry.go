package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// metricDef declares one metric of the benchmark. The registry below
// and BENCHMARK.json list the same names; a test pins that.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression
	// (per-layer metrics have none).
	Bound float64
	// Exact marks a (c) metric: a simulated count that must repeat bit
	// for bit for a given seed.
	Exact bool
}

// endToEnd is what a user of the simulator sees: host time, host
// memory, and (through failed/attempted) whether the simulated output
// stayed right. Reported by every workload with tracing off. The time
// and RSS bounds are as wide as the contract allows because the same
// code on the same 2-core box repeats no better than about 8 % between
// runs (README, "Run-to-run spread"); allocation counts repeat to 1-3 %.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "sim_events_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

func timed(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func rate(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "higher"} }
func exact(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Exact: true}
}

// perLayer is measured from outside, in the traced run: op spans
// around the public calls of an op, and probes that call lower layers
// directly. Layers are the internal/ package names.
var perLayer = []metricDef{
	// experiments: each figure alone on its own fresh Lab.
	timed("experiments.fig1_alone_s", "s"), timed("experiments.fig2_alone_s", "s"),
	timed("experiments.fig4_alone_s", "s"), timed("experiments.fig5_alone_s", "s"),
	timed("experiments.fig6_alone_s", "s"), timed("experiments.lifespan_alone_s", "s"),
	timed("experiments.reliability_alone_s", "s"), timed("experiments.fleet_alone_s", "s"),
	rate("experiments.memo_saving_ratio", "ratio"),
	// core
	timed("core.calibrate_s", "s"), timed("core.seed_package_s", "s"),
	// server
	timed("server.new_ms", "ms"), timed("server.init_host_ms", "ms"),
	timed("server.profiling_us_per_req", "us"), timed("server.optimizing_us_per_req", "us"),
	timed("server.serving_us_per_req", "us"),
	timed("server.tick_ms_p50", "ms"), timed("server.tick_ms_p99", "ms"),
	exact("server.requests_completed", "count", "higher"),
	exact("server.sim_capacity_loss_pct", "%", "lower"),
	exact("server.code_bytes", "B", "lower"),
	// replay
	exact("replay.hits", "count", "higher"), exact("replay.misses", "count", "lower"),
	exact("replay.hit_ratio", "ratio", "higher"), exact("replay.entries", "count", "higher"),
	rate("replay.off_on_wall_ratio", "ratio"),
	// interp / value / object
	timed("interp.us_per_request", "us"), timed("interp.ns_per_block", "ns"),
	exact("object.allocs_per_request", "count", "lower"),
	// prof
	timed("prof.collector_overhead_ratio", "ratio"),
	rate("prof.encode_mb_per_s", "MB/s"), rate("prof.decode_mb_per_s", "MB/s"),
	timed("prof.aggregate_ms", "ms"), timed("prof.remap_ms", "ms"),
	exact("prof.package_bytes", "B", "lower"), exact("prof.remap_hit_ratio", "ratio", "higher"),
	// jit / vasm
	rate("jit.compile_profiling_funcs_per_s", "1/s"), rate("jit.compile_optimized_funcs_per_s", "1/s"),
	timed("jit.relocate_ms", "ms"), timed("jit.runtime_overhead_ratio", "ratio"),
	exact("vasm.instrs", "count", "lower"),
	// layout
	rate("layout.exttsp_blocks_per_s", "1/s"), rate("layout.c3_funcs_per_s", "1/s"),
	// microarch
	rate("microarch.stream_maccs_per_s", "M/s"),
	exact("microarch.accesses", "count", "lower"), exact("microarch.l1i_miss_ratio", "ratio", "lower"),
	exact("microarch.itlb_miss_ratio", "ratio", "lower"), exact("microarch.branch_miss_ratio", "ratio", "lower"),
	// lang / hackc / bytecode / workload / release
	rate("lang.parse_mb_per_s", "MB/s"), rate("lang.print_mb_per_s", "MB/s"),
	rate("hackc.compile_mb_per_s", "MB/s"), rate("bytecode.verify_funcs_per_s", "1/s"),
	timed("workload.generate_site_ms", "ms"), timed("release.next_revision_ms", "ms"),
	// jumpstart
	timed("jumpstart.store_pick_ns", "ns"), timed("jumpstart.boot_consumer_ms", "ms"),
	timed("jumpstart.validate_ms", "ms"),
	// transport / netsim
	timed("transport.publish_us", "us"), timed("transport.fetch_us", "us"),
	timed("transport.fetch_brownout_us", "us"),
	exact("transport.fetch_retries", "count", "lower"), exact("transport.bytes_per_fetch", "B", "lower"),
	timed("netsim.sample_ns", "ns"),
	// multistore
	timed("multistore.fetch_us", "us"), timed("multistore.propagate_ms", "ms"),
	exact("multistore.failovers", "count", "lower"),
	// cluster
	timed("cluster.newfleet_ms", "ms"),
	timed("cluster.tick_ns_per_server_w1", "ns"), timed("cluster.tick_ns_per_server_w2", "ns"),
	rate("cluster.worker_speedup", "ratio"),
	timed("cluster.quiet_tick_ms_p50", "ms"), timed("cluster.deploy_tick_ms_p50", "ms"),
	timed("cluster.tick_ms_p99", "ms"),
	exact("cluster.sim_capacity_loss_pct", "%", "lower"), exact("cluster.fallbacks", "count", "lower"),
	exact("cluster.crashes", "count", "lower"), exact("cluster.remap_boots", "count", "higher"),
	// scenario / parallel / obs / telemetry
	timed("scenario.demand_ns", "ns"), timed("parallel.map_overhead_us", "us"),
	timed("obs.pelt_1k_ms", "ms"), timed("obs.classify_1k_ms", "ms"),
	timed("telemetry.span_ns", "ns"), timed("telemetry.on_off_wall_ratio", "ratio"),
	// the driver itself
	timed("bench.trace_overhead_pct", "%"), timed("bench.driver_self_pct", "%"),
	timed("bench.gc_cycles_per_op", "count"),
	rate("bench.series_flat", "count"),
}

// metrics is one run's named values.
type metrics map[string]float64

// metricValue is the wire form of one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// wire checks that m holds exactly the declared metrics, each finite,
// and pairs every value with its declared unit.
func wire(defs []metricDef, m metrics) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("bench: metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bench: metric %s is not finite (%v)", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(m) != len(defs) {
		for name := range m {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("bench: metric %s is not declared", name)
			}
		}
	}
	return out, nil
}

// manifest renders BENCHMARK.json from the registry and the workload
// table, so the two cannot drift (a test compares the committed file).
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
