package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// nameRE is the contract's shape for a metric or workload name.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func smokeConfig(t *testing.T) runConfig {
	return runConfig{sz: smokeSizes(), seed: 7, setUps: 1, maxOps: 1, probeDiv: 10,
		outDir: t.TempDir(), log: io.Discard}
}

// TestManifest pins BENCHMARK.json to the registry and the workload
// table, and the registry to the limits the benchmark contract sets.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from the registry; regenerate it with `bash bench/run.sh -manifest > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q is declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if len(d.Unit) == 0 || len(d.Unit) > 16 {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not declared")
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 / 128", len(endToEnd), len(perLayer))
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or reused", w.name)
		}
		seen[w.name] = true
		if len(w.why) == 0 || len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.name, len(w.why))
		}
	}
}

// TestSmoke runs every workload both ways at smoke scale: each must
// emit exactly the declared metrics, all finite, with no failed op.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			for _, traced := range []bool{false, true} {
				rep, defs, err := runChild(w, smokeConfig(t), traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("traced=%v: %d of %d operations failed", traced, rep.Failed, rep.Attempted)
				}
				if _, err := wire(defs, rep.Metrics); err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !traced {
					for _, d := range defs {
						if rep.Metrics[d.Name] <= 0 {
							t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, rep.Metrics[d.Name])
						}
					}
				}
			}
		})
	}
}

// TestExactMetricsRepeat: a (c) metric is a simulated count, so two
// traced runs from the same seed must report it bit for bit.
func TestExactMetricsRepeat(t *testing.T) {
	w, _ := findWorkload("fleet_store")
	a, err := runTraced(w, smokeConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runTraced(w, smokeConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if a.SimDigest != b.SimDigest {
		t.Errorf("sim_digest %s vs %s", a.SimDigest, b.SimDigest)
	}
	for _, d := range perLayer {
		if d.Exact && a.Metrics[d.Name] != b.Metrics[d.Name] {
			t.Errorf("%s: %v then %v", d.Name, a.Metrics[d.Name], b.Metrics[d.Name])
		}
	}
}

// TestOrderIndependence is the regression test for the shared
// sync.Once Lab that made a root benchmark's ns/op depend on which
// benchmark ran before it: here every op builds its own Lab / Server /
// Fleet, so a workload's digest is the same alone, first or second.
func TestOrderIndependence(t *testing.T) {
	figures, _ := findWorkload("figures_quick")
	cold, _ := findWorkload("cold_warmup")
	digest := func(w workloadSpec) string {
		rep, err := runTimed(w, smokeConfig(t))
		if err != nil || rep.Failed != 0 {
			t.Fatalf("%s: failed=%d err=%v", w.name, rep.Failed, err)
		}
		return rep.SimDigest
	}
	alone := digest(figures)
	coldFirst := digest(cold)
	after := digest(figures)
	coldSecond := digest(cold)
	if alone != after {
		t.Errorf("figures_quick digest changed after cold_warmup ran: %s vs %s", alone, after)
	}
	if coldFirst != coldSecond {
		t.Errorf("cold_warmup digest changed after figures_quick ran: %s vs %s", coldFirst, coldSecond)
	}
}

func TestCompareVerdicts(t *testing.T) {
	set := func(opMS ...float64) resultSet {
		var rs resultSet
		for _, v := range opMS {
			rs.Runs = append(rs.Runs, report{Workload: "cold_warmup", Metrics: metrics{"op_ms_p50": v}})
		}
		return rs
	}
	dir := t.TempDir()
	write := func(name string, rs resultSet) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, rs); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", set(100, 101, 99, 100, 102))
	for _, tc := range []struct {
		name      string
		other     resultSet
		verdict   string
		regressed bool
	}{
		{"same", set(100, 100, 101, 99, 100), "unchanged", false},
		{"slower", set(140, 141, 139, 140, 142), "REGRESSED", true},
		{"faster", set(60, 61, 59, 60, 62), "improved", false},
		{"noisy", set(60, 160, 100, 40, 140), "unresolved", false},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, base, write(tc.name+".json", tc.other))
		if err != nil {
			t.Fatal(err)
		}
		if regressed != tc.regressed || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: regressed=%v, want verdict %q in:\n%s", tc.name, regressed, tc.verdict, out.String())
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestBudgetSumsToWhole(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "bench", Name: "op", Start: 0, End: 10},
		{ID: 2, Parent: 1, Layer: "server", Name: "tick", Start: 1, End: 4},
		{ID: 3, Parent: 1, Layer: "server", Name: "tick", Start: 3, End: 9}, // overlaps its sibling
		{ID: 4, Layer: "bench", Name: "other", Start: 10, End: 12},
	}
	if self := selfTimes(spans)[0]; math.Abs(self-2) > 1e-12 {
		t.Errorf("self time of the op = %v, want 2 (children cover [1,9])", self)
	}
	share := 0.0
	for _, r := range budget(spans, 1) {
		share += r.Share
		if r.Name == "other" {
			t.Error("budget includes a span outside the op")
		}
	}
	if math.Abs(share-1) > 1e-12 {
		t.Errorf("budget shares sum to %v", share)
	}
}
