package experiments

import (
	"reflect"
	"testing"

	"jumpstart/internal/core"
)

// TestWarmupPrefixSharing pins the soundness condition behind the
// Lab's cross-figure baseline sharing: the prefix of the shared long
// run that warmupTicks hands out is byte-identical to a fresh run
// over the shorter horizon. If Server.Run ever stops being a pure
// prefix-extension (e.g. horizon-dependent behavior), this fails.
func TestWarmupPrefixSharing(t *testing.T) {
	l := quickLab(t)
	shared, err := l.warmupTicks(core.Variant{}, l.Cfg.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := l.Scenario.WarmupRun(core.Variant{}, nil, l.Cfg.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shared, fresh) {
		t.Fatalf("prefix of shared run diverged from a fresh run (%d vs %d ticks)",
			len(shared), len(fresh))
	}
}

// TestBaselineMemoSharing pins that the figures actually share their
// baselines: after Figures 1, 2, 4, 5 and 6 plus the fleet curves,
// the lab has executed exactly one warmup per variant and one steady
// measurement per distinct (variant, request count).
func TestBaselineMemoSharing(t *testing.T) {
	l := quickLab(t)
	if _, err := l.Fig1(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Fig2(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Fig4(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Fig5(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Fig6(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.fleetCurves(); err != nil {
		t.Fatal(err)
	}
	warms, steadies := len(l.warmMemo.cells), len(l.steadyMemo.cells)
	// Figure 1, Figure 2, Figure 4's no-Jump-Start half and the fleet's
	// no-Jump-Start curve all read the one long Variant{} run; Figure
	// 4's Jump-Start half and the fleet's Jump-Start curve read the one
	// FullJumpStart run.
	if warms != 2 {
		t.Fatalf("warmup runs executed: %d, want 2 (one per variant)", warms)
	}
	// Five Figure 6 cells (one of which IS Figure 5's no-Jump-Start
	// run), Figure 5's full-Jump-Start run, and the SteadyRPS
	// normalization basis: seven distinct measurements backing eight
	// figure-level reads.
	if steadies != 7 {
		t.Fatalf("steady measurements executed: %d, want 7", steadies)
	}
}
