package cluster

import "testing"

// allocFleet is a warm, telemetry-off 3×10×100 fleet on the in-memory
// store, past its first ticks so every per-tick buffer exists.
func allocFleet(t *testing.T, workers int) *Fleet {
	t.Helper()
	cfg := fleetConfig(true)
	cfg.Regions, cfg.ServersPerBucket = 3, 100
	cfg.Workers = workers
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Run(3 * cfg.TickSeconds)
	return f
}

// TestFleetTickAllocFree pins the fleet's steady-state allocations. A
// quiet Tick allocates only parallel.ForEachShard's fixed cost, as
// measured: the shard closure with one worker, plus a channel and two
// allocations per launched shard with two. The per-tick result
// buffers are reused and the merge passes allocate nothing, also for
// servers that reach steady capacity. A C3 wave restart walks the
// group's member list in place. Run by make alloccheck.
func TestFleetTickAllocFree(t *testing.T) {
	for _, tc := range []struct {
		workers int
		want    float64
	}{{1, 1}, {2, 6}} {
		f := allocFleet(t, tc.workers)
		if got := testing.AllocsPerRun(100, func() { f.Tick() }); got != tc.want {
			t.Errorf("workers=%d: quiet Tick makes %v allocations, want %v", tc.workers, got, tc.want)
		}
	}

	// A tick in which servers reach steady capacity costs the same:
	// with telemetry and RecordSeries off, the merge builds nothing per
	// warmed server (no span attributes without a trace).
	f := allocFleet(t, 1)
	const nWarm = 50
	warmTick := func() {
		for i := range f.servers[:nWarm] {
			s := &f.servers[i]
			s.state, s.stateT, s.curve = stWarming, f.now-1e9, f.curves[flCold]
		}
		f.Tick()
	}
	warmTick()
	warmed := 0
	for _, fl := range f.flags[:nWarm] {
		if fl&tkWarmed != 0 {
			warmed++
		}
	}
	if warmed != nWarm {
		t.Fatalf("%d of %d servers reached steady capacity, want all", warmed, nWarm)
	}
	if got := testing.AllocsPerRun(100, warmTick); got != 1 {
		t.Errorf("a tick warming %d servers makes %v allocations, want 1", nWarm, got)
	}

	f = allocFleet(t, 1)
	if got := testing.AllocsPerRun(20, func() {
		f.c3Wave = 0
		f.restartC3Wave()
	}); got != 0 {
		t.Errorf("restartC3Wave makes %v allocations, want 0", got)
	}
}
