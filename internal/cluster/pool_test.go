package cluster

import (
	"testing"

	"jumpstart/internal/jumpstart"
	"jumpstart/internal/obs"
)

// poolConfig is fleetConfig plus a warm standby pool of the given size
// and backfill rate. A standby swaps in at full capacity instantly,
// the strongest version of the tier.
func poolConfig(size int, rate float64) Config {
	cfg := fleetConfig(true)
	cfg.PoolSize = size
	cfg.PoolBackfillRate = rate
	return cfg
}

// checkPoolConservation verifies the pool's accounting identity: every
// standby is available, mid-reboot, or was never replaced at all.
func checkPoolConservation(t *testing.T, ps PoolStats) {
	t.Helper()
	if ps.Avail != ps.Size-ps.Drains+ps.Backfills {
		t.Fatalf("pool conservation broken: %+v", ps)
	}
	if ps.Pending != ps.Drains-ps.Backfills {
		t.Fatalf("pending miscounted: %+v", ps)
	}
	if ps.Avail < 0 || ps.Avail > ps.Size || ps.Pending < 0 {
		t.Fatalf("pool counters out of range: %+v", ps)
	}
}

// TestPoolLargerThanRestartGroup covers a pool that dwarfs the whole
// C3 population: every wave restart swaps, nothing misses, and the
// wave-slice math survives the swap path (the PR 3 slice-bounds class
// of bug — waves × per-wave may exceed the member count).
func TestPoolLargerThanRestartGroup(t *testing.T) {
	cfg := poolConfig(1000, 0)
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c3 := len(f.members[3])
	if cfg.PoolSize <= c3 {
		t.Fatalf("test premise broken: pool %d not larger than C3 group %d", cfg.PoolSize, c3)
	}
	f.StartDeployment()
	f.Run(3000)
	ps := f.PoolStats()
	checkPoolConservation(t, ps)
	if ps.Misses != 0 {
		t.Fatalf("oversized pool missed %d times", ps.Misses)
	}
	if ps.Drains != c3 {
		t.Fatalf("drains = %d, want one per C3 member (%d)", ps.Drains, c3)
	}
	if f.Deploying() {
		t.Fatal("deployment never completed with pooled waves")
	}
}

// TestPoolExhaustedMidWave covers the opposite extreme: a pool smaller
// than a single wave drains dry partway through it, and the remainder
// of the wave books misses and takes the ordinary restart path.
func TestPoolExhaustedMidWave(t *testing.T) {
	f, err := NewFleet(poolConfig(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	c3 := len(f.members[3])
	f.StartDeployment()
	f.Run(3000)
	ps := f.PoolStats()
	checkPoolConservation(t, ps)
	if ps.Drains == 0 {
		t.Fatal("pool never drained")
	}
	if ps.Misses == 0 {
		t.Fatal("undersized pool never missed")
	}
	// Every C3 restart either swapped or missed; nothing double-counted.
	if ps.Drains+ps.Misses != c3 {
		t.Fatalf("drains %d + misses %d != C3 members %d", ps.Drains, ps.Misses, c3)
	}
	if f.Deploying() {
		t.Fatal("deployment did not complete despite misses")
	}
}

// TestPoolBackfillRateThrottles pins the backfill throttle: with a
// tiny PoolBackfillRate, re-admissions are bounded by rate × elapsed
// even when every replaced instance has long finished rebooting, while
// an unthrottled pool re-admits everything.
func TestPoolBackfillRateThrottles(t *testing.T) {
	const horizon = 3000.0
	run := func(rate float64) PoolStats {
		f, err := NewFleet(poolConfig(20, rate))
		if err != nil {
			t.Fatal(err)
		}
		f.StartDeployment()
		f.Run(horizon)
		ps := f.PoolStats()
		checkPoolConservation(t, ps)
		return ps
	}
	free := run(0) // <= 0 means unthrottled
	if free.Backfills != free.Drains {
		t.Fatalf("unthrottled pool left %d instances pending after %vs",
			free.Pending, horizon)
	}
	slow := run(0.001) // at most 3 admissions over the whole horizon
	if slow.Backfills > 3 {
		t.Fatalf("throttled pool backfilled %d, want ≤ rate×elapsed = 3", slow.Backfills)
	}
	if slow.Backfills >= free.Backfills {
		t.Fatalf("throttle had no effect: %d vs %d", slow.Backfills, free.Backfills)
	}
}

// TestPoolReducesCapacityLoss is the tier's reason to exist: swapping
// warm standbys into C3 waves must cut the push's capacity loss
// relative to the same fleet without a pool.
func TestPoolReducesCapacityLoss(t *testing.T) {
	run := func(size int) float64 {
		cfg := poolConfig(size, 0)
		f, err := NewFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f.StartDeployment()
		ticks := f.Run(3000)
		return CapacityLoss(ticks, cfg.TickSeconds)
	}
	lossNoPool := run(0)
	lossPool := run(1000)
	if lossNoPool <= 0 {
		t.Fatalf("baseline push lost no capacity (%f); scenario inert", lossNoPool)
	}
	if lossPool >= lossNoPool {
		t.Fatalf("pool did not help: loss %.4f with pool ≥ %.4f without", lossPool, lossNoPool)
	}
}

// TestPoolBackfillDuringBrownout exercises backfill while the fleet is
// under stress: defective packages crash consumers mid-push while the
// pool keeps draining and refilling. The accounting identity must hold
// throughout, and crash reboots must never draw from the pool (drains
// stay bounded by C3 restarts).
func TestPoolBackfillDuringBrownout(t *testing.T) {
	cfg := poolConfig(10, 0.05)
	cfg.DefectRate = 0.8
	cfg.ValidationCatchRate = 0.2
	cfg.CrashDelay = 20
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c3 := len(f.members[3])
	f.StartDeployment()
	for f.Deploying() {
		f.Tick()
		checkPoolConservation(t, f.PoolStats())
	}
	f.Run(500)
	ps := f.PoolStats()
	checkPoolConservation(t, ps)
	if f.Crashes() == 0 {
		t.Fatal("stress scenario exercised no crashes")
	}
	if ps.Drains == 0 || ps.Backfills == 0 {
		t.Fatalf("pool idle under stress: %+v", ps)
	}
	// Crash-loop reboots take the normal path; only wave restarts swap.
	if ps.Drains+ps.Misses != c3 {
		t.Fatalf("crash reboots leaked into the pool: drains %d + misses %d != C3 %d",
			ps.Drains, ps.Misses, c3)
	}
}

// pooledLazyConfig turns on pooling, throttled backfill, lazy warmup
// and the defect paths together.
func pooledLazyConfig() Config {
	cfg := poolConfig(12, 0.02)
	cfg.DefectRate = 0.8
	cfg.ValidationCatchRate = 0.2
	cfg.CrashDelay = 20
	cfg.WarmupMode = jumpstart.WarmupLazy
	cfg.CurveLazy = WarmupCurve{
		Times:  []float64{0, 20, 120, 300},
		Values: []float64{0.55, 0.7, 0.9, 1.0},
	}
	return cfg
}

// TestPooledLazyDeterminism extends the fleet determinism contract to
// the new tier: with pooling, throttled backfill, lazy warmup and the
// defect paths all active, the tick series, pool accounting and boot
// counters must be byte-identical at every worker count. This is the
// -race half of the acceptance bar; `make verify` runs it with the
// detector on.
func TestPooledLazyDeterminism(t *testing.T) {
	run := func(workers int) ([]FleetTick, PoolStats, int, int, int) {
		cfg := pooledLazyConfig()
		cfg.Workers = workers
		f, err := NewFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f.StartDeployment()
		ticks := f.Run(3000)
		return ticks, f.PoolStats(), f.LazyBoots(), f.Crashes(), f.Fallbacks()
	}
	base, pool, lazy, crashes, fallbacks := run(1)
	if pool.Drains == 0 || lazy == 0 || crashes == 0 {
		t.Fatalf("scenario inert: pool %+v, lazy %d, crashes %d", pool, lazy, crashes)
	}
	for _, w := range []int{4, 0} { // 0 = one worker per CPU
		ticks, p, l, c, fb := run(w)
		if p != pool || l != lazy || c != crashes || fb != fallbacks {
			t.Fatalf("workers=%d: counters diverged: pool %+v lazy %d crashes %d fallbacks %d, want %+v %d %d %d",
				w, p, l, c, fb, pool, lazy, crashes, fallbacks)
		}
		if len(ticks) != len(base) {
			t.Fatalf("workers=%d: %d ticks, want %d", w, len(ticks), len(base))
		}
		for i := range base {
			if ticks[i] != base[i] {
				t.Fatalf("workers=%d: tick %d diverged:\n  seq %+v\n  par %+v", w, i, base[i], ticks[i])
			}
		}
	}
}

// TestLazyModeUsesLazyCurve pins the curve-selection plumbing: under
// WarmupLazy every jump-started consumer boots on CurveLazy — here
// deliberately slower to steady than the eager curve, so the push
// loses strictly more capacity than the eager run of the same fleet.
func TestLazyModeUsesLazyCurve(t *testing.T) {
	run := func(mode jumpstart.WarmupMode) (float64, int) {
		cfg := fleetConfig(true)
		cfg.WarmupMode = mode
		cfg.CurveLazy = WarmupCurve{
			Times:  []float64{0, 600},
			Values: []float64{0.5, 1.0},
		}
		f, err := NewFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f.StartDeployment()
		ticks := f.Run(3000)
		return CapacityLoss(ticks, cfg.TickSeconds), f.LazyBoots()
	}
	lossEager, lazyInEager := run(jumpstart.WarmupEager)
	lossLazy, lazyInLazy := run(jumpstart.WarmupLazy)
	if lazyInEager != 0 {
		t.Fatalf("eager run recorded %d lazy boots", lazyInEager)
	}
	if lazyInLazy == 0 {
		t.Fatal("lazy run recorded no lazy boots")
	}
	if lossLazy <= lossEager {
		t.Fatalf("lazy boots did not run on the lazy curve: loss %.4f ≤ eager %.4f",
			lossLazy, lossEager)
	}
}

// TestWarmupSeriesReanchorsPerPush is the regression test for the
// WarmupSeries suffix bug: a server that has not (yet) booted under
// the current push must contribute its flat series since the push
// began — not replay the previous push's warmup ramp. Before the fix,
// StartDeployment cleared only the seriesMarked flag, so un-rebooted
// servers sliced from the previous push's boot offset and classified
// as warmup curves they never ran.
func TestWarmupSeriesReanchorsPerPush(t *testing.T) {
	cfg := fleetConfig(true)
	cfg.RecordSeries = true
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Push 1 runs to completion: every server reboots and re-warms.
	f.StartDeployment()
	f.Run(3000)
	if f.Deploying() {
		t.Fatal("push 1 did not complete")
	}
	// Push 2 starts but only runs 10 ticks — short of C1Hold, so only
	// the tiny C1 group has rebooted; everyone else sits flat at steady.
	f.StartDeployment()
	const ticks = 10
	for i := 0; i < ticks; i++ {
		f.Tick()
	}
	series := f.WarmupSeries()
	flat := 0
	for i, s := range series {
		if len(s) > ticks {
			t.Fatalf("server %d suffix has %d samples, want ≤ %d since push 2 started",
				i, len(s), ticks)
		}
		if obs.Classify(s, cfg.TickSeconds).Label == obs.LabelFlat {
			flat++
		}
	}
	// Only C1 members (c1Fraction of the fleet) may look non-flat.
	if min := len(series) * 9 / 10; flat < min {
		t.Fatalf("only %d/%d un-rebooted servers classify flat, want ≥ %d",
			flat, len(series), min)
	}
}
