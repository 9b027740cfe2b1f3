package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"testing"
)

var printGolden = flag.Bool("print-golden", false,
	"print the figure-text digest instead of comparing against goldenFigureDigest")

// goldenFigureDigest pins the text of every figure (FigureOrder, at
// tinyConfig, one worker) across commits: the determinism test below
// proves the output does not depend on scheduling, this proves a
// refactor did not change it. Regenerate only on an intended output
// change: go test ./internal/experiments -run
// TestRunFiguresParallelDeterminism -print-golden -v
const goldenFigureDigest = "2a6a8ec55eebdd1ebdd4b3b201c15ab603299e0314fe5813b6b5c4631eb9b19d"

// tinyConfig is a below-Quick scale: the determinism tests build one
// fresh Lab per worker count (caches must not mask scheduling effects),
// so the per-Lab cost has to stay small.
func tinyConfig() Config {
	cfg := Quick()
	cfg.SiteCfg.Units = 3
	cfg.SiteCfg.HelpersPerUnit = 4
	cfg.SiteCfg.EndpointsPerUnit = 2
	// Fewer simulated cores caps the calibrated load — and with it the
	// number of bytecode-executing requests — far below Quick scale.
	cfg.ServerCfg.Cores = 2
	cfg.ServerCfg.InitCycles = 3e6
	cfg.Horizon = 90
	cfg.LongHorizon = 180
	cfg.SteadyRequests = 150
	cfg.PushInterval = 300
	cfg.FleetCfg.ServersPerBucket = 8
	return cfg
}

// TestRunFiguresParallelDeterminism is the engine's core guarantee:
// regenerating every figure through the full cmd/experiments path must
// produce byte-identical output at every worker count — the parallel
// run is a pure wall-clock optimization, not a different experiment.
func TestRunFiguresParallelDeterminism(t *testing.T) {
	render := func(workers int) []byte {
		cfg := tinyConfig()
		cfg.Workers = workers
		lab, err := NewLab(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := lab.RunFigures(&buf, FigureOrder, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return buf.Bytes()
	}
	base := render(1)
	if len(base) == 0 {
		t.Fatal("sequential run produced no output")
	}
	digest := fmt.Sprintf("%x", sha256.Sum256(base))
	if *printGolden {
		t.Logf("const goldenFigureDigest = %q", digest)
	} else if digest != goldenFigureDigest {
		t.Errorf("figure text changed: digest %s, want %s (see goldenFigureDigest)", digest, goldenFigureDigest)
	}
	for _, w := range []int{4, 0} { // 0 = one worker per CPU
		got := render(w)
		if !bytes.Equal(base, got) {
			i := 0
			for i < len(base) && i < len(got) && base[i] == got[i] {
				i++
			}
			lo, hi := i-80, i+80
			if lo < 0 {
				lo = 0
			}
			clip := func(b []byte) []byte {
				if hi > len(b) {
					return b[lo:]
				}
				return b[lo:hi]
			}
			t.Fatalf("workers=%d diverged from sequential at byte %d:\n  seq: …%q…\n  par: …%q…",
				w, i, clip(base), clip(got))
		}
	}
}

// TestSweepParallelDeterminism: the per-seed streams are forked, so the
// sweep's numbers must not depend on how seeds are scheduled.
func TestSweepParallelDeterminism(t *testing.T) {
	run := func(workers int) SweepResult {
		cfg := tinyConfig()
		cfg.Workers = workers
		res, err := Sweep(cfg, 7, 2)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	seq := run(1)
	par := run(0)
	if len(seq.PerSeed) != 2 || len(par.PerSeed) != 2 {
		t.Fatalf("wrong seed counts: %d vs %d", len(seq.PerSeed), len(par.PerSeed))
	}
	for i := range seq.PerSeed {
		if seq.PerSeed[i] != par.PerSeed[i] {
			t.Fatalf("seed %d diverged:\n  seq %+v\n  par %+v", i, seq.PerSeed[i], par.PerSeed[i])
		}
	}
	for i := range seq.Stats {
		if seq.Stats[i] != par.Stats[i] {
			t.Fatalf("stat %s diverged:\n  seq %+v\n  par %+v", seq.Stats[i].Name, seq.Stats[i], par.Stats[i])
		}
	}
	// The seeds must be genuinely different repetitions.
	if seq.PerSeed[0].Seed == seq.PerSeed[1].Seed {
		t.Fatal("sweep reused a seed")
	}
}
