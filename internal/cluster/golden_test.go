package cluster

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"testing"

	"jumpstart/internal/jumpstart"
	"jumpstart/internal/netsim"
	"jumpstart/internal/scenario"
)

var printGolden = flag.Bool("print-golden", false,
	"print the TestFleetGoldenDigests table instead of comparing against it")

// goldenCases are the fleets whose output is pinned across commits: one
// per determinism config in this package and the three span scenarios,
// plus the paths no determinism test drives — a remap-tolerant push
// over the multi-region hierarchy, replica failover with a region
// outage, crash-avoiding fetches over the transport, every boot flavour
// at once (with and without flavour curves), and an exact-only wipe of
// a lossy networked store under lazy warmup.
var goldenCases = []struct {
	name    string
	seconds float64
	cfg     func(t *testing.T) Config
}{
	{"defects-direct", 3000, func(*testing.T) Config {
		cfg := DefaultConfig()
		cfg.CurveJumpStart = jsCurve()
		cfg.CurveNoJumpStart = noJSCurve()
		cfg.DefectRate = 0.5
		cfg.ValidationCatchRate = 0.5
		cfg.CrashDelay = 30
		return cfg
	}},
	{"churn-direct", 4000, func(*testing.T) Config { return churnConfig(0, false) }},
	{"churn-transport", 2000, func(*testing.T) Config { return churnConfig(0, true) }},
	{"churn-multistore", 2000, func(*testing.T) Config {
		cfg := churnConfig(0, true)
		cfg.Transport.Multi = &MultiConfig{NodesPerRegion: 3, Replicas: 2, AggregateSeeders: 2}
		cfg.CurveAggregated = aggCurve()
		return cfg
	}},
	{"brownout-transport", 4000, func(*testing.T) Config { return brownoutConfig(0, nil) }},
	{"regions-brownout", 4000, func(*testing.T) Config { return regionsBrownoutConfig() }},
	{"pooled-lazy", 3000, func(*testing.T) Config { return pooledLazyConfig() }},
	{"scenario-diurnal", 1500, func(t *testing.T) Config {
		return scenarioFleetConfig(t, scenario.Diurnal, 1500)
	}},
	{"scenario-flashcrowd", 1500, func(t *testing.T) Config {
		return scenarioFleetConfig(t, scenario.FlashCrowd, 1500)
	}},
	{"scenario-failover", 1500, func(t *testing.T) Config {
		return scenarioFleetConfig(t, scenario.Failover, 1500)
	}},
	{"span-direct-defects", 2500, func(*testing.T) Config { return spanScenarios[0].cfg() }},
	{"span-transport", 2500, func(*testing.T) Config { return spanScenarios[1].cfg() }},
	{"span-multistore", 2500, func(*testing.T) Config { return spanScenarios[2].cfg() }},
	{"outage-multistore", 4000, func(*testing.T) Config {
		cfg := multiFleetConfig(
			netsim.Config{Faults: []netsim.Fault{
				netsim.Partition(280, 1e9, "intra:r0/n0"),
				netsim.PartitionPrefix(280, 1e9, "intra:r1/"),
			}},
			MultiConfig{NodesPerRegion: 3, Replicas: 2, PropagateEvery: 60})
		cfg.Transport.Client.Budget = 8
		return cfg
	}},
	{"defects-transport", 1500, func(*testing.T) Config {
		cfg := transportFleetConfig(netsim.Config{BaseLatency: 0.02})
		cfg.DefectRate = 0.8
		cfg.ValidationCatchRate = 0.2
		cfg.CrashDelay = 20
		return cfg
	}},
	// Every boot flavour at once, with all curves configured, over the
	// multi-region hierarchy — the full curve precedence chain.
	{"allflavours-multistore", 2000, func(t *testing.T) Config {
		cfg := scenarioFleetConfig(t, scenario.Failover, 2000)
		cfg.Regions, cfg.ServersPerBucket = 3, 8
		cfg.DefectRate, cfg.ValidationCatchRate, cfg.CrashDelay = 0.8, 0.2, 20
		cfg.C1Hold, cfg.C2Hold = 30, 200
		cfg.PushEvery = 900
		cfg.RemapPolicy = jumpstart.RemapTolerant
		cfg.RemapHitRate = 0.8
		cfg.CurveRemapped = remappedCurve()
		cfg.CurveAggregated = aggCurve()
		cfg.WarmupMode = jumpstart.WarmupLazy
		cfg.CurveLazy = pooledLazyConfig().CurveLazy
		cfg.Transport = transportFleetConfig(netsim.Config{
			BaseLatency: 0.02,
			Faults:      []netsim.Fault{netsim.Partition(280, 1200, "intra:r0/n0")},
		}).Transport
		cfg.Transport.Multi = &MultiConfig{NodesPerRegion: 3, Replicas: 2, AggregateSeeders: 2}
		return cfg
	}},
	// Every boot flavour with only the base curves configured: counters
	// book what happened even when no flavour curve exists.
	{"allflavours-direct-nocurves", 3000, func(t *testing.T) Config {
		cfg := scenarioFleetConfig(t, scenario.Failover, 3000)
		cfg.CurveFailover, cfg.CurveMismatch = WarmupCurve{}, WarmupCurve{}
		cfg.Regions, cfg.ServersPerBucket = 3, 8
		cfg.DefectRate, cfg.ValidationCatchRate, cfg.CrashDelay = 0.8, 0.2, 20
		cfg.C1Hold, cfg.C2Hold = 30, 200
		cfg.PushEvery = 900
		cfg.RemapPolicy = jumpstart.RemapTolerant
		cfg.RemapHitRate = 0.8
		cfg.WarmupMode = jumpstart.WarmupLazy
		cfg.PoolSize, cfg.PoolBackfillRate = 12, 0.02
		return cfg
	}},
	{"exact-only-transport-lazy", 1500, func(*testing.T) Config {
		cfg := churnConfig(0, true)
		cfg.RemapPolicy = jumpstart.ExactOnly
		cfg.WarmupMode = jumpstart.WarmupLazy
		cfg.Transport.Net = netsim.Config{BaseLatency: 0.02, DropRate: 0.05}
		return cfg
	}},
}

// goldenDigests were produced by the commit that introduced this test
// (`go test ./internal/cluster -run TestFleetGoldenDigests -print-golden`)
// and change only when the simulated output is meant to change. sim
// hashes what the simulation reports; trace hashes what it emits to
// telemetry (event/span JSONL plus the metrics registry) and the
// recorded per-boot latency samples.
var goldenDigests = map[string]struct{ sim, trace string }{
	"defects-direct": {
		sim:   "08d756f902a2edee734e7b48",
		trace: "d7885ab3b348b183e8f3b024",
	},
	"churn-direct": {
		sim:   "4a6d767a07825f5227c4cf17",
		trace: "dba2824d9dffa99e852ae033",
	},
	"churn-transport": {
		sim:   "d1b312bcfb367e92b951480e",
		trace: "6053f228fc55e1baedf595f0",
	},
	"churn-multistore": {
		sim:   "64689c398537b4c2305215f5",
		trace: "967f239790d3d983a2f62392",
	},
	"brownout-transport": {
		sim:   "a0403cefc89bab83e217e56a",
		trace: "4a37e3fff98ed469078e5a73",
	},
	"regions-brownout": {
		sim:   "44cfb673b7ab882849ef2e4e",
		trace: "7e3a0a3bf194c13d0b497cde",
	},
	"pooled-lazy": {
		sim:   "3b67cc8477e890dd6b7ca9c4",
		trace: "df992571f9d58ee14c228f1f",
	},
	"scenario-diurnal": {
		sim:   "6efde58cdff74a0cb00a492d",
		trace: "90326ce8311b04d0e10e9ebe",
	},
	"scenario-flashcrowd": {
		sim:   "ccb17433e126576c40c18b8d",
		trace: "60b8e10c3ce0b47674e48fec",
	},
	"scenario-failover": {
		sim:   "d3d22eca452b58c9f53b29c6",
		trace: "4c65d7b6142faf89b391fc13",
	},
	"span-direct-defects": {
		sim:   "4dcd91c6c9fd591aad4f2b6c",
		trace: "155eda1760c14e12dab1b42b",
	},
	"span-transport": {
		sim:   "9bab8430bc3f65bc36825ee3",
		trace: "e650436e969ee84dfed0266c",
	},
	"span-multistore": {
		sim:   "8cf2c2c8299e1f19e598aecc",
		trace: "61125f71cade47daa2ef4572",
	},
	"outage-multistore": {
		sim:   "69ab6c6c16a4ea2ab07a4d08",
		trace: "ea37a9970c2d87836170b527",
	},
	"defects-transport": {
		sim:   "bb9e82c8517eca246dd17fe0",
		trace: "0cb0726703ca19138fad124a",
	},
	"allflavours-multistore": {
		sim:   "9d5ab5ed4a795927891124da",
		trace: "8e0c4c23e26658ace28e627b",
	},
	"allflavours-direct-nocurves": {
		sim:   "b3f8b0226af78e71720e7f13",
		trace: "b09c55a25d40bed74e43ed86",
	},
	"exact-only-transport-lazy": {
		sim:   "8419ab0aa33a75ad32961264",
		trace: "193ee6ebc4c47852c1646077",
	},
}

// TestFleetGoldenDigests pins the fleet's output across commits. Every
// other determinism test compares a run against itself at another
// worker count, which cannot notice a change that moves all worker
// counts alike; this one compares against a committed table, at
// workers 1 (telemetry off) and 4 (telemetry and series recording on).
func TestFleetGoldenDigests(t *testing.T) {
	for _, gc := range goldenCases {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			cfg := gc.cfg(t)
			cfg.Workers = 1
			cfg.Telem = nil
			sim1, _ := goldenRun(t, cfg, gc.seconds)

			cfg = gc.cfg(t)
			cfg.Workers = 4
			cfg.Telem = obsSet()
			cfg.RecordSeries = true
			sim4, trace := goldenRun(t, cfg, gc.seconds)

			if *printGolden {
				fmt.Printf("\t%q: {\n\t\tsim:   %q,\n\t\ttrace: %q,\n\t},\n", gc.name, sim1, trace)
				return
			}
			if sim4 != sim1 {
				t.Errorf("workers=4 sim digest %s differs from workers=1 %s", sim4, sim1)
			}
			want, ok := goldenDigests[gc.name]
			if !ok {
				t.Fatalf("no golden digest committed; got sim %s trace %s", sim1, trace)
			}
			if sim1 != want.sim {
				t.Errorf("sim digest %s, want %s", sim1, want.sim)
			}
			if trace != want.trace {
				t.Errorf("trace digest %s, want %s", trace, want.trace)
			}
		})
	}
}

// goldenRun drives one push for the given duration and hashes the
// fleet's reported output and, when telemetry is wired, its trace and
// metrics.
func goldenRun(t *testing.T, cfg Config, seconds float64) (sim, trace string) {
	t.Helper()
	f, ticks := runDeployment(t, cfg, seconds)
	h := sha256.New()
	for i := range ticks {
		fmt.Fprintf(h, "%+v\n", ticks[i])
	}
	fmt.Fprintf(h, "reasons %+v\noutcomes %+v\n", f.FallbackReasons(), f.Outcomes())
	kept, lost := f.PackageChurn()
	propOK, propFail := f.Propagation()
	fmt.Fprintf(h, "crashes %d fallbacks %d remap %d lazy %d failovers %d consensus %d aggboots %d prop %d/%d churn %d/%d\n",
		f.Crashes(), f.Fallbacks(), f.RemapBoots(), f.LazyBoots(), f.Failovers(),
		f.ConsensusPackages(), f.AggregatedBoots(), propOK, propFail, kept, lost)
	// The pool line keeps the text the committed digests were taken
	// over: the trailing "Pooled" count always equalled Drains.
	ps := f.PoolStats()
	fmt.Fprintf(h, "pool {Size:%d Avail:%d Pending:%d Drains:%d Backfills:%d Misses:%d Pooled:%d}\nscenario %+v\n",
		ps.Size, ps.Avail, ps.Pending, ps.Drains, ps.Backfills, ps.Misses, ps.Drains, f.ScenarioStats())
	sim = fmt.Sprintf("%x", h.Sum(nil)[:12])
	if cfg.Telem == nil {
		return sim, ""
	}
	var buf bytes.Buffer
	if err := cfg.Telem.Trace.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Telem.Metrics.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "bootlat %v\ntts %v\n", f.BootLatencies(), f.TimesToSteady())
	return sim, fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))[:24]
}

// TestFleetSteadyCount checks the running-server count that ends a
// deployment against a scan of every server, after every tick of every
// golden case and after a group restart between ticks: pushes, crashes
// from warming and from running, pool swaps, seeders and region drills
// all move servers in and out of stRunning. Every case completes at
// least one deployment, so the count is also what ended it.
func TestFleetSteadyCount(t *testing.T) {
	for _, gc := range goldenCases {
		cfg := gc.cfg(t)
		cfg.Workers = 1
		f, err := NewFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f.StartDeployment()
		check := func(when string) {
			t.Helper()
			running := 0
			for j := range f.servers {
				if f.servers[j].state == stRunning {
					running++
				}
			}
			if f.steady != running {
				t.Fatalf("%s: %s: steady count %d, %d servers running", gc.name, when, f.steady, running)
			}
		}
		completed := 0
		for i := 0; i < int(gc.seconds/cfg.TickSeconds); i++ {
			deploying := f.Deploying()
			f.Tick()
			check(fmt.Sprintf("tick %d", i))
			if deploying && !f.Deploying() {
				completed++
			}
		}
		if completed == 0 {
			t.Fatalf("%s: no deployment completed in %v s", gc.name, gc.seconds)
		}
		// A wave restart between ticks must keep the count too: the
		// last C3 wave is checked right after it restarts.
		f.restartGroup(3)
		check("after a group restart")
	}
}
