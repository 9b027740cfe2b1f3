package cluster

import (
	"bytes"
	"testing"

	"jumpstart/internal/telemetry"
)

// TestFleetTelemetryZeroPerturbation is the fleet half of the
// zero-perturbation contract: the tick series must be identical with
// telemetry on or off, at every worker count, and the metrics snapshot
// must be byte-identical at every worker count.
func TestFleetTelemetryZeroPerturbation(t *testing.T) {
	run := func(workers int, tel *telemetry.Set) ([]FleetTick, int, int) {
		cfg := DefaultConfig()
		cfg.CurveJumpStart = jsCurve()
		cfg.CurveNoJumpStart = noJSCurve()
		cfg.DefectRate = 0.5
		cfg.ValidationCatchRate = 0.5
		cfg.CrashDelay = 30
		cfg.Workers = workers
		cfg.Telem = tel
		f, err := NewFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f.StartDeployment()
		return f.Run(2000), f.Crashes(), f.Fallbacks()
	}

	base, crashes, fallbacks := run(1, nil)
	if crashes == 0 {
		t.Fatal("scenario exercised no crashes; defect path untested")
	}

	var lastTel *telemetry.Set
	var firstMetrics []byte
	for _, w := range []int{1, 2, 3, 4, 0} { // 0 = one worker per CPU
		for _, withTel := range []bool{false, true} {
			var tel *telemetry.Set
			if withTel {
				tel = telemetry.NewSet()
				lastTel = tel
			}
			ticks, c, fb := run(w, tel)
			if c != crashes || fb != fallbacks {
				t.Fatalf("workers=%d tel=%v: crashes/fallbacks %d/%d, want %d/%d",
					w, withTel, c, fb, crashes, fallbacks)
			}
			if len(ticks) != len(base) {
				t.Fatalf("workers=%d tel=%v: %d ticks, want %d", w, withTel, len(ticks), len(base))
			}
			for i := range base {
				if ticks[i] != base[i] {
					t.Fatalf("workers=%d tel=%v: tick %d diverged:\n  base %+v\n  got  %+v",
						w, withTel, i, base[i], ticks[i])
				}
			}
			if !withTel {
				continue
			}
			var buf bytes.Buffer
			if err := tel.Metrics.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if firstMetrics == nil {
				firstMetrics = buf.Bytes()
			} else if !bytes.Equal(buf.Bytes(), firstMetrics) {
				t.Fatalf("workers=%d: metrics snapshot differs from workers=1:\n  first %s\n  got   %s",
					w, firstMetrics, buf.Bytes())
			}
		}
	}

	// The observed runs must agree with the simulation's own counters.
	if got := lastTel.Metrics.Counter("fleet.crashes_total").Value(); got != uint64(crashes) {
		t.Fatalf("crash counter %d, want %d", got, crashes)
	}
	if got := lastTel.Metrics.Counter("fleet.fallbacks_total").Value(); got != uint64(fallbacks) {
		t.Fatalf("fallback counter %d, want %d", got, fallbacks)
	}
	// One step per server per tick.
	wantSteps := uint64(len(base)) * uint64(3*10*24)
	if got := lastTel.Metrics.Counter("fleet.steps_total").Value(); got != wantSteps {
		t.Fatalf("steps counter %d, want %d", got, wantSteps)
	}
	if lastTel.Trace.Len() == 0 {
		t.Fatal("no fleet events recorded")
	}
}
