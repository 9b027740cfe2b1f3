package cluster

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"jumpstart/internal/netsim"
	"jumpstart/internal/obs"
	"jumpstart/internal/telemetry"
)

// obsSet builds a telemetry set with a trace ring large enough that a
// full test deployment's spans survive to validation without eviction.
func obsSet() *telemetry.Set {
	return &telemetry.Set{
		Metrics: telemetry.NewRegistry(),
		Trace:   telemetry.NewTrace(telemetry.SpanTraceCapacity),
		Cycles:  telemetry.NewCycleProfile(),
	}
}

// spanScenarios are the boot paths whose span trees differ: direct
// in-memory picks, the networked transport (fetch/backoff/rpc
// children), the multi-region hierarchy (replica legs) and warm-pool
// swaps (no fetch at all).
var spanScenarios = []struct {
	name string
	cfg  func() Config
}{
	{"direct-defects", func() Config {
		cfg := fleetConfig(true)
		cfg.DefectRate = 0.5
		cfg.ValidationCatchRate = 0.5
		cfg.CrashDelay = 30
		return cfg
	}},
	{"transport", func() Config {
		return transportFleetConfig(netsim.Config{BaseLatency: 0.02})
	}},
	{"multistore", func() Config {
		return multiFleetConfig(
			netsim.Config{BaseLatency: 0.02},
			MultiConfig{NodesPerRegion: 3, Replicas: 2, PropagateEvery: 60})
	}},
	{"pool", func() Config { return poolConfig(8, 0) }},
}

// TestFleetSpanDeterminism is the tentpole observability contract at
// fleet level, per boot path: the causal span trace — both export
// formats — is byte-identical at every worker count, the tick series
// is unperturbed by tracing (spans on ≡ spans off), and every span
// tree passes the duration-conservation check with zero orphans.
func TestFleetSpanDeterminism(t *testing.T) {
	for _, sc := range spanScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			type run struct {
				ticks  []FleetTick
				jsonl  []byte
				chrome []byte
			}
			do := func(workers int, tel *telemetry.Set) run {
				cfg := sc.cfg()
				cfg.Workers = workers
				cfg.Telem = tel
				cfg.RecordSeries = tel != nil
				_, ticks := runDeployment(t, cfg, 2500)
				r := run{ticks: ticks}
				if tel != nil {
					var jl, ch bytes.Buffer
					if err := tel.Trace.WriteJSONL(&jl); err != nil {
						t.Fatal(err)
					}
					if err := tel.Trace.WriteChromeTrace(&ch); err != nil {
						t.Fatal(err)
					}
					r.jsonl = jl.Bytes()
					r.chrome = ch.Bytes()

					check := obs.ValidateSpans(tel.Trace.Events())
					if check.Spans == 0 {
						t.Fatal("deployment recorded no spans")
					}
					if check.Orphans != 0 {
						t.Fatalf("%d orphaned spans (evicted or never-closed parents)", check.Orphans)
					}
					if !check.OK() {
						t.Fatalf("span conservation violated:\n%v", check.Violations)
					}
				}
				return r
			}

			off := do(1, nil)
			base := do(1, obsSet())
			if i, ok := ticksEqual(off.ticks, base.ticks); !ok {
				t.Fatalf("tracing perturbed the simulation at tick %d: %+v vs %+v",
					i, off.ticks[i], base.ticks[i])
			}
			for _, workers := range []int{4, runtime.NumCPU()} {
				got := do(workers, obsSet())
				if i, ok := ticksEqual(base.ticks, got.ticks); !ok {
					t.Fatalf("workers=%d diverged at tick %d", workers, i)
				}
				if !bytes.Equal(base.jsonl, got.jsonl) {
					t.Fatalf("workers=%d: JSONL span trace diverged", workers)
				}
				if !bytes.Equal(base.chrome, got.chrome) {
					t.Fatalf("workers=%d: Chrome span trace diverged", workers)
				}
			}
		})
	}
}

// TestFleetWarmupSeriesClassification closes the loop from recorded
// per-server capacity series to changepoint labels: every server the
// deployment rebooted yields a warmup-labeled curve with a steady
// segment, and the classifier agrees with the fleet's own
// time-to-steady bookkeeping on sample counts.
func TestFleetWarmupSeriesClassification(t *testing.T) {
	cfg := fleetConfig(true)
	cfg.RecordSeries = true
	cfg.Telem = obsSet()
	f, _ := runDeployment(t, cfg, 2500)

	series := f.WarmupSeries()
	if len(series) == 0 {
		t.Fatal("RecordSeries produced no series")
	}
	warmups := 0
	for i, xs := range series {
		c := obs.Classify(xs, cfg.TickSeconds)
		if c.Label == obs.LabelWarmup {
			warmups++
			if c.SteadyStart < 0 {
				t.Fatalf("server %d: warmup curve without steady segment: %+v", i, c)
			}
			if c.TimeToSteady <= 0 {
				t.Fatalf("server %d: non-positive time-to-steady: %+v", i, c)
			}
		}
	}
	if warmups == 0 {
		t.Fatal("no server curve classified as warmup")
	}
	if got := len(f.BootLatencies()); got == 0 {
		t.Fatal("no boot latencies recorded")
	}
	if got := len(f.TimesToSteady()); got == 0 {
		t.Fatal("no times-to-steady recorded")
	}
}

// TestBootSamplesWithoutTelemetry pins that the per-boot warmup
// samples are the fleet's own bookkeeping, not a by-product of
// tracing: with RecordSeries on, a run without telemetry records the
// same boot latencies and times to steady as a traced one, on every
// boot path. The traced run also checks the invariant that lets the
// samples skip the trace: every server that reaches steady capacity
// does so inside an open boot, so each sample has exactly one warmup
// span of the same duration, in the same order.
func TestBootSamplesWithoutTelemetry(t *testing.T) {
	for _, sc := range spanScenarios {
		t.Run(sc.name, func(t *testing.T) {
			run := func(tel *telemetry.Set) *Fleet {
				cfg := sc.cfg()
				cfg.RecordSeries = true
				cfg.Telem = tel
				f, _ := runDeployment(t, cfg, 2500)
				return f
			}
			off := run(nil)
			tel := obsSet()
			on := run(tel)
			if len(off.BootLatencies()) == 0 || len(off.TimesToSteady()) == 0 {
				t.Fatal("telemetry-off run recorded no boot samples")
			}
			for _, c := range []struct {
				name    string
				off, on []float64
			}{
				{"BootLatencies", off.BootLatencies(), on.BootLatencies()},
				{"TimesToSteady", off.TimesToSteady(), on.TimesToSteady()},
			} {
				if !slices.Equal(c.off, c.on) {
					t.Fatalf("%s differ with telemetry off:\n  off %v\n  on  %v", c.name, c.off, c.on)
				}
			}

			if tel.Trace.Dropped() != 0 {
				t.Fatalf("trace ring dropped %d events", tel.Trace.Dropped())
			}
			var warmups []float64
			for _, ev := range tel.Trace.Events() {
				if ev.Cat == "boot" && ev.Name == "warmup" {
					warmups = append(warmups, ev.Dur)
				}
			}
			if !slices.Equal(warmups, on.TimesToSteady()) {
				t.Fatalf("warmup spans do not match times to steady one to one:\n  spans %v\n  tts   %v",
					warmups, on.TimesToSteady())
			}
		})
	}
}
