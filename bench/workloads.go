package main

import "jumpstart/internal/experiments"

// runSeconds is BENCHMARK.json's run_seconds: how long the timed
// window of one run measures.
const runSeconds = 10

// workloadSpec is one set of inputs the benchmark runs.
type workloadSpec struct {
	name, why string
	// config picks the scale the workload's site is generated at.
	config func(sz sizes) experiments.Config
	// extra is the workload-specific tail of set-up.
	extra func(e *env) error
	op    opFunc
	// warmUp runs one untimed op before the window.
	warmUp bool
}

func quickConfig(sz sizes) experiments.Config  { return sz.quick }
func serverConfig(sz sizes) experiments.Config { return sz.server }
func fleetExtra(e *env) error                  { return e.measureFleetInputs() }

// The five workloads. Names are fixed: later issues name the metric
// and workload they move from this table.
var workloads = []workloadSpec{
	{
		name: "figures_quick",
		why: "the command users run: a memo-less Lab renders the eight paper figures with 2 workers; " +
			"small site, high replay hit ratio; exercises Lab memo cells, parallel and every layer beneath",
		config: quickConfig, op: opFigures,
	},
	{
		name: "cold_warmup",
		why: "paper Fig. 1/2 baseline: no-Jump-Start boot through profiling, tier-2 compile and relocation; " +
			"the replay cache is inert while profiling, so replay work should show little here",
		config: serverConfig, op: opCold,
	},
	{
		name: "jumpstart_serve",
		why: "paper Fig. 4 Jump-Start side: consumer boots from a fetched package and serves; replay hit and " +
			"miss paths plus microarch streams; bypasses the profile collector and tier-1 entirely",
		config: serverConfig, op: opJumpStart, warmUp: true,
		extra: func(e *env) error { e.publish(); return nil },
	},
	{
		name: "fleet_direct",
		why: "72000 servers on the in-memory store under continuous pushes: the parallel per-server curve " +
			"replay of Fleet.Tick dominates; store, transport and boots are noise",
		config: quickConfig, extra: fleetExtra, op: opFleetDirect, warmUp: true,
	},
	{
		name: "fleet_store",
		why: "240 servers behind the multi-region networked store with a brownout, a node outage and defects: " +
			"the sequential merge phase (fetches, failover legs, propagation, aggregation) dominates",
		config: quickConfig, extra: fleetExtra, op: opFleetStore,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// setUp builds the workload's environment from scratch.
func (w workloadSpec) setUp(sz sizes) (*env, error) {
	e, err := newEnv(w.config(sz))
	if err != nil {
		return nil, err
	}
	if w.extra != nil {
		if err := w.extra(e); err != nil {
			return nil, err
		}
	}
	return e, nil
}
