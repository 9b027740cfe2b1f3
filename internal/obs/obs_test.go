package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"jumpstart/internal/telemetry"
)

func TestChangepointsSingleStep(t *testing.T) {
	// A clean level shift at index 30 must yield exactly one
	// changepoint at 30.
	xs := make([]float64, 60)
	for i := range xs {
		if i < 30 {
			xs[i] = 10
		} else {
			xs[i] = 50
		}
	}
	cps := Changepoints(xs, 0)
	if len(cps) != 1 || cps[0] != 30 {
		t.Fatalf("changepoints = %v, want [30]", cps)
	}
	if Changepoints(nil, 0) != nil || Changepoints([]float64{1}, 0) != nil {
		t.Fatal("degenerate series must have no changepoints")
	}
}

func TestChangepointsNoisyStep(t *testing.T) {
	// Deterministic pseudo-noise (no PRNG: a fixed sinusoid) around a
	// step. PELT must still put the single changepoint at the step.
	xs := make([]float64, 80)
	for i := range xs {
		base := 100.0
		if i >= 40 {
			base = 200
		}
		xs[i] = base + 3*math.Sin(float64(i))
	}
	cps := Changepoints(xs, 0)
	if len(cps) != 1 || cps[0] != 40 {
		t.Fatalf("changepoints = %v, want [40]", cps)
	}
}

// goldenCurves pins the classifier's labels on canonical curve shapes —
// the classifier regression suite `make verify` runs in CI.
func goldenCurves() map[string]struct {
	xs   []float64
	want Label
} {
	ramp := make([]float64, 100) // warmup: ramp then plateau
	for i := range ramp {
		v := float64(i) * 4
		if v > 200 {
			v = 200
		}
		ramp[i] = v
	}
	decay := make([]float64, 100) // slowdown: plateau then degrade
	for i := range decay {
		if i < 40 {
			decay[i] = 300
		} else {
			decay[i] = 120
		}
	}
	flat := make([]float64, 100)
	for i := range flat {
		flat[i] = 250 + 0.5*math.Sin(float64(i)) // jitter inside tolerance
	}
	bump := make([]float64, 90) // rises then falls: no steady state
	for i := range bump {
		switch {
		case i < 30:
			bump[i] = 100
		case i < 60:
			bump[i] = 400
		default:
			bump[i] = 150
		}
	}
	return map[string]struct {
		xs   []float64
		want Label
	}{
		"ramp-plateau":  {ramp, LabelWarmup},
		"plateau-decay": {decay, LabelSlowdown},
		"flat-jitter":   {flat, LabelFlat},
		"bump":          {bump, LabelNonMonotonic},
	}
}

func TestClassifyGoldenLabels(t *testing.T) {
	for name, tc := range goldenCurves() {
		c := Classify(tc.xs, 1)
		if c.Label != tc.want {
			t.Errorf("%s: label = %s, want %s (cps %v, means %v)",
				name, c.Label, tc.want, c.Changepoints, c.SegmentMeans)
		}
		switch tc.want {
		case LabelWarmup:
			if c.SteadyStart <= 0 || c.TimeToSteady != float64(c.SteadyStart) {
				t.Errorf("%s: steady start %d / tts %v", name, c.SteadyStart, c.TimeToSteady)
			}
			if c.SteadyMean < 190 {
				t.Errorf("%s: steady mean %v", name, c.SteadyMean)
			}
		case LabelFlat:
			if c.SteadyStart != 0 || c.TimeToSteady != 0 {
				t.Errorf("%s: flat must be steady from 0, got %d", name, c.SteadyStart)
			}
		case LabelNonMonotonic:
			if c.SteadyStart != -1 || c.TimeToSteady != -1 {
				t.Errorf("%s: non-monotonic must report no steady state", name)
			}
		}
	}
	// Empty series: flat, mean 0.
	if c := Classify(nil, 1); c.Label != LabelFlat || c.SteadyMean != 0 {
		t.Fatalf("empty classify = %+v", c)
	}
}

func TestClassifyDeterministic(t *testing.T) {
	for name, tc := range goldenCurves() {
		a := Classify(tc.xs, 2.5)
		b := Classify(tc.xs, 2.5)
		if a.Label != b.Label || a.SteadyStart != b.SteadyStart ||
			a.TimeToSteady != b.TimeToSteady || len(a.Changepoints) != len(b.Changepoints) {
			t.Fatalf("%s: classification not deterministic: %+v vs %+v", name, a, b)
		}
	}
}

func TestLabelNames(t *testing.T) {
	want := []string{"flat", "warmup", "slowdown", "non-monotonic"}
	for i, l := range Labels {
		if l.String() != want[i] {
			t.Fatalf("label %d = %s", i, l)
		}
	}
	if Label(99).String() != "label(99)" {
		t.Fatal("out-of-range label name")
	}
}

func spanEvents() []telemetry.Event {
	// A two-boot forest recorded the way the fleet records it: children
	// land before their EndSpan'd parents.
	return []telemetry.Event{
		{Seq: 2, Parent: 1, T: 0, Dur: 1, Cat: "boot", Name: "transport.fetch"},
		{Seq: 3, Parent: 1, T: 1, Dur: 2, Cat: "boot", Name: "warmup"},
		{Seq: 1, Parent: 0, T: 0, Dur: 3, Cat: "boot", Name: "boot"},
		{Seq: 5, Parent: 4, T: 10, Dur: 4, Cat: "boot", Name: "warmup"},
		{Seq: 4, Parent: 0, T: 10, Dur: 4, Cat: "boot", Name: "boot"},
		{Seq: 6, Parent: 4, T: 11, Cat: "boot", Name: "crash"}, // instant
	}
}

func TestBuildSpanTree(t *testing.T) {
	tree := BuildSpanTree(spanEvents())
	if len(tree.Roots) != 2 || tree.Orphans != 0 {
		t.Fatalf("roots=%d orphans=%d", len(tree.Roots), tree.Orphans)
	}
	// Roots sorted by start time; children by (T, Seq).
	if tree.Roots[0].Event.Seq != 1 || tree.Roots[1].Event.Seq != 4 {
		t.Fatalf("root order: %d, %d", tree.Roots[0].Event.Seq, tree.Roots[1].Event.Seq)
	}
	b1 := tree.Roots[0]
	if len(b1.Children) != 2 || b1.Children[0].Event.Name != "transport.fetch" ||
		b1.Children[1].Event.Name != "warmup" {
		t.Fatalf("boot 1 children wrong: %+v", b1.Children)
	}

	// Evict the parent of seq 5/6: they become orphan roots.
	evs := spanEvents()
	orphaned := append(evs[:4:4], evs[5]) // drop seq 4
	tree = BuildSpanTree(orphaned)
	if tree.Orphans != 2 || len(tree.Roots) != 3 {
		t.Fatalf("orphans=%d roots=%d", tree.Orphans, len(tree.Roots))
	}
}

func TestValidateSpansConservation(t *testing.T) {
	check := ValidateSpans(spanEvents())
	if !check.OK() {
		t.Fatalf("valid tree flagged: %v", check.Violations)
	}
	if check.Spans != 5 || check.Instants != 1 || check.Roots != 2 || check.Orphans != 0 {
		t.Fatalf("check = %+v", check)
	}

	// Child escaping its parent's window.
	bad := []telemetry.Event{
		{Seq: 1, T: 0, Dur: 2, Name: "boot"},
		{Seq: 2, Parent: 1, T: 1, Dur: 5, Name: "warmup"}, // ends at 6 > 2
	}
	check = ValidateSpans(bad)
	if check.OK() || !strings.Contains(check.Violations[0], "escapes parent") {
		t.Fatalf("escape not caught: %+v", check.Violations)
	}

	// Children summing past the parent's duration (but each contained).
	over := []telemetry.Event{
		{Seq: 1, T: 0, Dur: 3, Name: "boot"},
		{Seq: 2, Parent: 1, T: 0, Dur: 2, Name: "a"},
		{Seq: 3, Parent: 1, T: 1, Dur: 2, Name: "b"},
	}
	check = ValidateSpans(over)
	if check.OK() || !strings.Contains(check.Violations[0], "children sum") {
		t.Fatalf("over-sum not caught: %+v", check.Violations)
	}

	// Exact conservation (children tile the parent) passes.
	exact := []telemetry.Event{
		{Seq: 1, T: 0, Dur: 3, Name: "boot"},
		{Seq: 2, Parent: 1, T: 0, Dur: 1.5, Name: "fetch"},
		{Seq: 3, Parent: 1, T: 1.5, Dur: 1.5, Name: "warmup"},
	}
	if check = ValidateSpans(exact); !check.OK() {
		t.Fatalf("exact tiling flagged: %v", check.Violations)
	}
}

func TestQuantileSortedInterpolation(t *testing.T) {
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile")
	}
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	if got := Quantile(xs, 0); got != 10 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 40 {
		t.Fatalf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); got != 25 {
		t.Fatalf("q0.5 = %v, want 25", got)
	}
	if got := Quantile(xs, -1); got != 10 {
		t.Fatal("q must clamp low")
	}
	if xs[0] != 40 {
		t.Fatal("Quantile must not mutate its input")
	}
}

func TestReportVerdictsAndText(t *testing.T) {
	rep := NewReport(SLO{BootP99: 5, TimeToSteadyP95: 100, CapacityLoss: 0.10})
	js := rep.Regime("jumpstart")
	for i := 0; i < 20; i++ {
		js.AddBootLatency(1 + float64(i)*0.1)
	}
	js.AddClassification(Classification{Label: LabelWarmup, SteadyStart: 60, TimeToSteady: 60})
	js.AddClassification(Classification{Label: LabelFlat})
	js.AddFallback("store-miss", 2)
	js.AddFallback("revision-mismatch", 1)
	js.SetCapacityLoss(0.05)

	no := rep.Regime("nojumpstart")
	no.AddBootLatency(30)
	no.AddClassification(Classification{Label: LabelWarmup, SteadyStart: 300, TimeToSteady: 300})
	no.SetCapacityLoss(0.22)

	if rep.Regime("jumpstart") != js {
		t.Fatal("regime not memoized")
	}
	if js.LabelCount(LabelWarmup) != 1 || js.Curves() != 2 {
		t.Fatal("label tally wrong")
	}

	vs := js.Verdicts(rep.SLO)
	if len(vs) != 3 || !vs[0].Passed || !vs[1].Passed || !vs[2].Passed {
		t.Fatalf("jumpstart verdicts = %+v", vs)
	}
	if rep.Passed() {
		t.Fatal("nojumpstart breaches the SLO; report must fail")
	}

	rep.AttachSpanCheck(ValidateSpans(spanEvents()))
	var b1, b2 bytes.Buffer
	if err := rep.WriteText(&b1); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteText(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("report text not deterministic")
	}
	out := b1.String()
	for _, needle := range []string{
		"regime jumpstart", "regime nojumpstart",
		"boot latency (n=20)", "time-to-steady (n=1)",
		"warmup=1 (50%)", "flat=1 (50%)",
		"fallbacks: revision-mismatch=1 store-miss=2",
		"slo boot-p99", "PASS", "FAIL",
		"span check: 5 spans, 1 instants, 2 roots, 0 orphans — OK",
	} {
		if !strings.Contains(out, needle) {
			t.Fatalf("report missing %q:\n%s", needle, out)
		}
	}

	// A failing span check fails the report and renders violations.
	rep2 := NewReport(SLO{})
	rep2.AttachSpanCheck(ValidateSpans([]telemetry.Event{
		{Seq: 1, T: 0, Dur: 1, Name: "boot"},
		{Seq: 2, Parent: 1, T: 0, Dur: 9, Name: "warmup"},
	}))
	if rep2.Passed() {
		t.Fatal("violating span check must fail the report")
	}
	var b3 bytes.Buffer
	if err := rep2.WriteText(&b3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b3.String(), "VIOLATIONS") {
		t.Fatalf("violations not rendered:\n%s", b3.String())
	}
}

// TestClassifyDegenerateSeries pins the defined behavior for series
// with fewer than two samples — the shape WarmupSeries hands over for a
// server that never booted (or booted on the simulation's final tick).
// Both must come back labeled, with a defined steady state, and with
// no NaN anywhere; before the WarmupSeries suffix fix these could only
// be reached by constructing the slices by hand, now the fleet produces
// them routinely.
func TestClassifyDegenerateSeries(t *testing.T) {
	for _, tc := range []struct {
		name string
		xs   []float64
	}{
		{"empty", nil},
		{"single", []float64{3.5}},
	} {
		c := Classify(tc.xs, 2.0)
		if c.Label != LabelFlat {
			t.Fatalf("%s: label = %v, want flat", tc.name, c.Label)
		}
		if c.SteadyStart != 0 || c.TimeToSteady != 0 {
			t.Fatalf("%s: steady start %d at %v, want 0 at 0", tc.name, c.SteadyStart, c.TimeToSteady)
		}
		if len(c.SegmentMeans) != 1 {
			t.Fatalf("%s: segment means %v, want exactly one", tc.name, c.SegmentMeans)
		}
		if math.IsNaN(c.SegmentMeans[0]) || math.IsNaN(c.SteadyMean) {
			t.Fatalf("%s: NaN in classification %+v", tc.name, c)
		}
		if len(c.Changepoints) != 0 {
			t.Fatalf("%s: changepoints %v, want none", tc.name, c.Changepoints)
		}
	}
	if got := Classify([]float64{3.5}, 2.0).SteadyMean; got != 3.5 {
		t.Fatalf("single-sample steady mean = %v, want 3.5", got)
	}
}

// TestReportEmptyRegimeText pins the empty-snapshot report path: a
// regime that accumulated nothing (a run aborted before any boot
// completed) must still render — no NaN percentages, no 0/0 quantiles
// — and empty-sample quantiles must report 0.
func TestReportEmptyRegimeText(t *testing.T) {
	if got := Quantile(nil, 0.99); got != 0 {
		t.Fatalf("Quantile(nil) = %v, want 0", got)
	}
	rep := NewReport(SLO{BootP99: 1, TimeToSteadyP95: 1, CapacityLoss: 0.5})
	empty := rep.Regime("aborted")
	// Curves classified but zero boots recorded: the curve percentages
	// must divide by the curve count, never by the boot count.
	empty.AddClassification(Classify(nil, 1))
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Fatalf("empty-regime report leaked NaN/Inf:\n%s", out)
	}
	if !strings.Contains(out, "regime aborted") || !strings.Contains(out, "flat=1 (100%)") {
		t.Fatalf("empty-regime report missing expected lines:\n%s", out)
	}
	// With no boot/steady samples the corresponding SLO verdicts are
	// suppressed rather than judged against empty data.
	if vs := empty.Verdicts(rep.SLO); len(vs) != 0 {
		t.Fatalf("verdicts over empty samples: %+v", vs)
	}
	if !rep.Passed() {
		t.Fatal("empty report must pass vacuously")
	}
}
