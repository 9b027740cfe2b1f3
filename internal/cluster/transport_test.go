package cluster

import (
	"fmt"
	"runtime"
	"testing"

	"jumpstart/internal/jumpstart"
	"jumpstart/internal/jumpstart/transport"
	"jumpstart/internal/netsim"
	"jumpstart/internal/telemetry"
)

// transportFleetConfig wires the networked store into the standard
// test fleet with the given fabric.
func transportFleetConfig(net netsim.Config) Config {
	cfg := fleetConfig(true)
	cfg.Transport = &TransportConfig{
		Net:          net,
		Client:       transport.ClientConfig{RPCTimeout: 1, Budget: 30, BackoffBase: 0.1, BackoffCap: 5},
		PackageBytes: 2048,
		ChunkSize:    512,
	}
	return cfg
}

// runDeployment drives a full push and returns the tick series.
func runDeployment(t *testing.T, cfg Config, seconds float64) (*Fleet, []FleetTick) {
	t.Helper()
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.StartDeployment()
	return f, f.Run(seconds)
}

func ticksEqual(a, b []FleetTick) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if a[i] != b[i] {
			return i, false
		}
	}
	return 0, true
}

// TestTransportPerfNeutralWhenHealthy is the acceptance criterion at
// fault rate zero: routing every publish and fetch through the
// chunked store protocol over a healthy fabric produces a tick series
// byte-identical to the direct in-memory path.
func TestTransportPerfNeutralWhenHealthy(t *testing.T) {
	direct, dTicks := runDeployment(t, fleetConfig(true), 2000)
	netted, nTicks := runDeployment(t, transportFleetConfig(netsim.Config{}), 2000)
	if i, ok := ticksEqual(dTicks, nTicks); !ok {
		t.Fatalf("healthy transport diverged from direct store at tick %d:\n direct: %+v\n netted: %+v",
			i, dTicks[i], nTicks[i])
	}
	if direct.Fallbacks() != netted.Fallbacks() || netted.Crashes() != 0 {
		t.Fatalf("fallbacks %d vs %d, crashes %d",
			direct.Fallbacks(), netted.Fallbacks(), netted.Crashes())
	}
}

// TestTransportLatencyDelaysWarmup: a slow (but lossless) fabric must
// not change outcomes, only delay them — capacity recovers later than
// on the healthy fabric and no one falls back.
func TestTransportLatencyDelaysWarmup(t *testing.T) {
	fast, fTicks := runDeployment(t, transportFleetConfig(netsim.Config{}), 3000)
	slow, sTicks := runDeployment(t, transportFleetConfig(netsim.Config{BaseLatency: 0.5}), 3000)
	if slow.Fallbacks() != fast.Fallbacks() || slow.Crashes() != 0 {
		t.Fatalf("lossless latency changed outcomes: fallbacks %d vs %d, crashes %d",
			slow.Fallbacks(), fast.Fallbacks(), slow.Crashes())
	}
	if lf, ls := CapacityLoss(fTicks, 5), CapacityLoss(sTicks, 5); ls <= lf {
		t.Fatalf("0.5s RPC latency did not cost capacity: loss %f vs %f", ls, lf)
	}
}

// brownoutConfig injects a store brownout squarely over the C3 fetch
// storm: 97%% of store RPCs drop for a long window, so consumer boots
// retry into their budgets and some exhaust them.
func brownoutConfig(workers int, tel *telemetry.Set) Config {
	cfg := transportFleetConfig(netsim.Config{
		BaseLatency: 0.02,
		Faults:      []netsim.Fault{netsim.Brownout(250, 1500, 0.97, 0.5)},
	})
	cfg.Workers = workers
	cfg.Telem = tel
	cfg.Transport.Client.Budget = 12
	return cfg
}

// TestFleetBrownoutDeterminism is the headline acceptance test: under
// a seeded store brownout the fleet degrades gracefully — zero
// crashes, every consumer either jump-started or fell back with a
// recorded reason — and the run is byte-identical across worker
// counts, with telemetry on or off.
func TestFleetBrownoutDeterminism(t *testing.T) {
	type run struct {
		ticks     []FleetTick
		fallbacks []ReasonCount
		outcomes  []ServerOutcome
	}
	do := func(workers int, tel *telemetry.Set) run {
		f, ticks := runDeployment(t, brownoutConfig(workers, tel), 4000)
		return run{ticks: ticks, fallbacks: f.FallbackReasons(), outcomes: f.Outcomes()}
	}
	base := do(1, nil)

	// Graceful degradation: the brownout slowed boots down but broke
	// nothing.
	budgetFallbacks := 0
	for _, rc := range base.fallbacks {
		if rc.Reason == jumpstart.FallbackFetchBudget {
			budgetFallbacks = rc.Count
		}
	}
	if budgetFallbacks == 0 {
		t.Fatal("brownout never exhausted a fetch budget; fault window missed the fetch storm")
	}
	for i, o := range base.outcomes {
		if o.Crashes != 0 {
			t.Fatalf("server %d crashed during brownout", i)
		}
		if o.Group != 2 && !o.UsedJS && o.Reason == jumpstart.FallbackNone {
			t.Fatalf("server %d (group %d) booted without Jump-Start and without a recorded reason", i, o.Group)
		}
	}

	// Determinism: byte-identical across worker counts and with
	// telemetry enabled.
	for _, workers := range []int{4, runtime.NumCPU()} {
		got := do(workers, telemetry.NewSet())
		if i, ok := ticksEqual(base.ticks, got.ticks); !ok {
			t.Fatalf("workers=%d diverged at tick %d: %+v vs %+v",
				workers, i, base.ticks[i], got.ticks[i])
		}
		if fmt.Sprintf("%v", got.fallbacks) != fmt.Sprintf("%v", base.fallbacks) {
			t.Fatalf("workers=%d fallback reasons diverged: %v vs %v",
				workers, got.fallbacks, base.fallbacks)
		}
		if fmt.Sprintf("%v", got.outcomes) != fmt.Sprintf("%v", base.outcomes) {
			t.Fatalf("workers=%d server outcomes diverged", workers)
		}
	}
}

// TestTransportPublishFailureDegrades: a total partition on the seeder
// uplink makes every upload fail terminally; consumers see an empty
// store and boot without Jump-Start — slower, but zero crashes and
// every skip accounted for.
func TestTransportPublishFailureDegrades(t *testing.T) {
	cfg := transportFleetConfig(netsim.Config{
		Faults: []netsim.Fault{netsim.Partition(0, 1e9, "seeder")},
	})
	cfg.Transport.Client.Budget = 5
	f, ticks := runDeployment(t, cfg, 3000)
	if f.Crashes() != 0 {
		t.Fatalf("crashes = %d", f.Crashes())
	}
	last := ticks[len(ticks)-1]
	if last.PkgsAvail != 0 {
		t.Fatalf("packages landed through a partition: %d", last.PkgsAvail)
	}
	js := 0
	for i, o := range f.Outcomes() {
		if o.UsedJS {
			js++
		}
		if o.Group != 2 && !o.UsedJS && o.Reason == jumpstart.FallbackNone {
			t.Fatalf("server %d skipped Jump-Start silently", i)
		}
	}
	if js != 0 {
		t.Fatalf("%d servers jump-started from an empty store", js)
	}
}

// TestC3WavesExceedMembers is a regression test: a fleet with fewer
// C3 servers than configured waves used to panic in restartC3Wave
// (slice bounds out of range) once the later, empty waves fired.
func TestC3WavesExceedMembers(t *testing.T) {
	cfg := fleetConfig(true)
	cfg.Regions = 1
	cfg.Buckets = 2
	cfg.ServersPerBucket = 3
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.StartDeployment()
	f.Run(2000)
	if f.Deploying() {
		t.Fatal("tiny-fleet deployment never completed")
	}
}
