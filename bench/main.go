// Command bench is the repo's benchmark: five host-time workloads over
// the simulator stack, end-to-end metrics with tracing off, and
// per-layer metrics measured from outside in a separate traced run.
// See README.md in this directory and BENCHMARK.json at the repo root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	smoke    bool
	out      string
	outDir   string
	passes   int
	compare  bool
	manifest bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (default: run every workload, one child process each)")
	flag.Uint64Var(&o.seed, "seed", 1, "seeds the traffic, fleet and network streams; op i uses seed+i")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the timed window")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny site, one set-up, one op: for tests")
	flag.StringVar(&o.out, "out", "", "also write the full record of the run(s) as JSON to this file")
	flag.StringVar(&o.outDir, "outdir", "bench/out", "where the traced run writes trace-<workload>.jsonl")
	flag.IntVar(&o.passes, "passes", 1, "without -workload: how many times to run every workload")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files: bench -compare A.json B.json")
	flag.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json as the registry declares it")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	switch {
	case o.manifest:
		b, err := manifest()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	case o.compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		regressed, err := compareFiles(os.Stdout, args[0], args[1])
		if err == nil && regressed {
			err = fmt.Errorf("at least one metric regressed")
		}
		return err
	case o.workload == "":
		return runAll(o)
	}

	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	rc := runConfig{sz: fullSizes(), seed: o.seed, seconds: o.seconds, setUps: 3, probeDiv: 1,
		outDir: o.outDir, log: os.Stdout}
	if o.smoke {
		rc.sz, rc.setUps, rc.maxOps, rc.probeDiv = smokeSizes(), 1, 1, 10
	}
	rep, defs, err := runChild(w, rc, o.trace != 0)
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := writeJSON(o.out, resultSet{Runs: []report{rep}}); err != nil {
			return err
		}
	}
	return emit(os.Stdout, defs, rep)
}

// runChild runs one workload in this process, traced or not.
func runChild(w workloadSpec, rc runConfig, traced bool) (report, []metricDef, error) {
	if traced {
		rep, err := runTraced(w, rc)
		return rep, perLayer, err
	}
	rep, err := runTimed(w, rc)
	return rep, endToEnd, err
}

// emit prints the human-readable report and then, as the last line,
// the result object the contract prescribes.
func emit(f io.Writer, defs []metricDef, rep report) error {
	wired, err := wire(defs, rep.Metrics)
	if err != nil {
		return err
	}
	printReport(f, defs, rep)
	line, err := json.Marshal(resultLine{
		Correct:   rep.Failed == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   wired,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", line)
	return err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
