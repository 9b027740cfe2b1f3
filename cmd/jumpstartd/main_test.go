package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jumpstart/internal/jumpstart"
	"jumpstart/internal/jumpstart/transport"
	"jumpstart/internal/obs"
	"jumpstart/internal/prof"
	"jumpstart/internal/telemetry"
)

func TestRunNoJumpStartWithTelemetry(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "out.jsonl")
	metrics := filepath.Join(dir, "out.json")
	folded := filepath.Join(dir, "out.folded")

	var out strings.Builder
	err := run([]string{
		"-mode", "nojumpstart", "-seconds", "30",
		"-trace", trace, "-metrics", metrics, "-cycleprof", folded,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "t_seconds,completed") {
		t.Fatalf("missing CSV header:\n%s", out.String())
	}

	// Trace: non-empty JSONL, starting with the server start event.
	tr, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(tr)), "\n")
	if len(lines) < 2 {
		t.Fatalf("trace too short: %d lines", len(lines))
	}
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("invalid JSONL: %s", line)
		}
	}

	// Metrics: valid JSON with the expected families.
	mb, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(mb, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["server.requests_total"] == 0 {
		t.Fatalf("no requests counted: %s", mb)
	}

	// Cycle profile: folded stacks rooted at the binary name.
	fb, err := os.ReadFile(folded)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(fb), "jumpstartd;init;init ") {
		t.Fatalf("unexpected folded output:\n%s", fb)
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-mode", "bogus"}, &out); err == nil {
		t.Fatal("unknown mode must error")
	}
	if err := run([]string{"-mode", "consumer"}, &out); err == nil {
		t.Fatal("consumer without -package or -store-url must error")
	}
}

// TestRunFlagValidation: nonsense numeric flags must fail fast with a
// usage pointer, before any simulation starts.
func TestRunFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-mode", "bogus"},
		{"-seconds", "0"},
		{"-seconds", "-10"},
		{"-region", "-1"},
		{"-bucket", "-1"},
		{"-rps", "-100"},
		{"-fetch-budget", "0"},
		{"-serve-seconds", "-1"},
		{"-warmup-mode", "bogus"},
		{"-mode", "consumer"}, // no package source
	}
	for _, args := range cases {
		var out strings.Builder
		err := run(args, &out)
		if err == nil {
			t.Errorf("%v accepted", args)
			continue
		}
		if !strings.Contains(err.Error(), "usage") {
			t.Errorf("%v: error %q has no usage pointer", args, err)
		}
	}
}

// TestStoreHandoff drives the full networked seeder→consumer handoff
// against a real store server: the seeder simulates, collects, and
// uploads its package over HTTP; a separate consumer run fetches it
// through the chunked transport and boots with Jump-Start.
func TestStoreHandoff(t *testing.T) {
	store := jumpstart.NewStore()
	ts := httptest.NewServer(transport.NewServer(store, 4096).Handler())
	defer ts.Close()

	var seedOut strings.Builder
	err := run([]string{"-mode", "seeder", "-quick", "-seconds", "600",
		"-store-url", ts.URL}, &seedOut)
	if err != nil {
		t.Fatalf("seeder: %v\n%s", err, seedOut.String())
	}
	if !strings.Contains(seedOut.String(), "# published package id=") {
		t.Fatalf("seeder did not publish:\n%s", seedOut.String())
	}
	if store.Count(0, 0) != 1 {
		t.Fatalf("store holds %d packages", store.Count(0, 0))
	}

	var consOut strings.Builder
	err = run([]string{"-mode", "consumer", "-quick", "-seconds", "30",
		"-store-url", ts.URL}, &consOut)
	if err != nil {
		t.Fatalf("consumer: %v\n%s", err, consOut.String())
	}
	if !strings.Contains(consOut.String(), "# boot: jumpstart=true") {
		t.Fatalf("consumer did not jump-start:\n%s", consOut.String())
	}
	if !strings.Contains(consOut.String(), "t_seconds,completed") {
		t.Fatalf("consumer produced no tick series:\n%s", consOut.String())
	}
}

// TestAggregateMerge drives seeder aggregation end to end: two quick
// seeders with different traffic seeds write their packages, a
// merge-only run combines them into a consensus package on disk, and a
// consumer boots from the merged profiles.
func TestAggregateMerge(t *testing.T) {
	dir := t.TempDir()
	pkgs := []string{filepath.Join(dir, "a.pkg"), filepath.Join(dir, "b.pkg")}
	for i, p := range pkgs {
		var out strings.Builder
		err := run([]string{"-mode", "seeder", "-quick", "-seconds", "600",
			"-seed", []string{"1", "2"}[i], "-package", p}, &out)
		if err != nil {
			t.Fatalf("seeder %d: %v\n%s", i, err, out.String())
		}
	}

	merged := filepath.Join(dir, "merged.pkg")
	var mergeOut strings.Builder
	err := run([]string{"-aggregate", pkgs[0] + "," + pkgs[1], "-package", merged}, &mergeOut)
	if err != nil {
		t.Fatalf("merge: %v\n%s", err, mergeOut.String())
	}
	if !strings.Contains(mergeOut.String(), "# consensus merge: seeders=2") {
		t.Fatalf("missing merge stats:\n%s", mergeOut.String())
	}
	if fi, err := os.Stat(merged); err != nil || fi.Size() == 0 {
		t.Fatalf("merged package not written: %v", err)
	}

	var consOut strings.Builder
	err = run([]string{"-mode", "consumer", "-quick", "-seconds", "30",
		"-aggregate", pkgs[0] + "," + pkgs[1]}, &consOut)
	if err != nil {
		t.Fatalf("consumer: %v\n%s", err, consOut.String())
	}
	if !strings.Contains(consOut.String(), "# consensus merge: seeders=2") ||
		!strings.Contains(consOut.String(), "t_seconds,completed") {
		t.Fatalf("aggregated consumer boot incomplete:\n%s", consOut.String())
	}
}

// TestConsumerStoreURLFallback: with an unreachable store and a tiny
// fetch budget the consumer must still come up — without Jump-Start,
// with the budget exhaustion recorded as the reason.
func TestConsumerStoreURLFallback(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-mode", "consumer", "-quick", "-seconds", "10",
		"-store-url", "http://127.0.0.1:1", "-fetch-budget", "0.2"}, &out)
	if err != nil {
		t.Fatalf("fallback boot errored: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "# boot: jumpstart=false") ||
		!strings.Contains(out.String(), "fetch budget exhausted") {
		t.Fatalf("missing fallback report:\n%s", out.String())
	}
}

// TestServeStoreSmoke binds the store daemon to an ephemeral port,
// preloads a package file, and shuts down on the -serve-seconds timer.
func TestServeStoreSmoke(t *testing.T) {
	pkgFile := filepath.Join(t.TempDir(), "p.pkg")
	if err := os.WriteFile(pkgFile, []byte("opaque-package-bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run([]string{"-serve-store", "127.0.0.1:0", "-serve-seconds", "0.05",
		"-package", pkgFile}, &out)
	if err != nil {
		t.Fatalf("serve-store: %v\n%s", err, out.String())
	}
	for _, want := range []string{"# store listening on http://127.0.0.1:",
		"# preloaded", "# store shut down"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q:\n%s", want, out.String())
		}
	}
}

func TestTelemetryMux(t *testing.T) {
	tel := telemetry.NewSet()
	tel.Counter("x_total").Add(3)
	mux := telemetryMux(tel)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"x_total":3`) {
		t.Fatalf("metrics endpoint: %d %s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != 200 {
		t.Fatalf("pprof endpoint: %d", rec.Code)
	}

	// A nil set still serves valid JSON.
	rec = httptest.NewRecorder()
	telemetryMux(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("nil-set metrics endpoint: %d %s", rec.Code, rec.Body.String())
	}
}

// TestRunSpansExport smoke-tests -spans on a networked consumer boot:
// the boot span tree — store pick, transport fetch with its RPC
// children, validation — exports as JSONL with parent links intact and
// passes the duration-conservation check.
func TestRunSpansExport(t *testing.T) {
	store := jumpstart.NewStore()
	ts := httptest.NewServer(transport.NewServer(store, 4096).Handler())
	defer ts.Close()

	var seedOut strings.Builder
	if err := run([]string{"-mode", "seeder", "-quick", "-seconds", "600",
		"-store-url", ts.URL}, &seedOut); err != nil {
		t.Fatalf("seeder: %v", err)
	}

	dir := t.TempDir()
	jsonl := filepath.Join(dir, "boot.jsonl")
	var out strings.Builder
	if err := run([]string{"-mode", "consumer", "-quick", "-seconds", "30",
		"-store-url", ts.URL, "-spans", jsonl}, &out); err != nil {
		t.Fatalf("consumer: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "# boot: jumpstart=true") {
		t.Fatalf("consumer did not jump-start:\n%s", out.String())
	}

	data, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name":"boot"`, `"name":"store.pick"`,
		`"name":"transport.fetch"`, `"name":"validate"`, `"parent":`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("span trace missing %s:\n%s", want, data)
		}
	}

	var evs []telemetry.Event
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var raw struct {
			Seq    uint64  `json:"seq"`
			Parent uint64  `json:"parent"`
			T      float64 `json:"t"`
			Dur    float64 `json:"dur"`
			Cat    string  `json:"cat"`
			Name   string  `json:"name"`
		}
		if err := json.Unmarshal([]byte(line), &raw); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
		evs = append(evs, telemetry.Event{Seq: raw.Seq, Parent: raw.Parent,
			T: raw.T, Dur: raw.Dur, Cat: raw.Cat, Name: raw.Name})
	}
	check := obs.ValidateSpans(evs)
	if check.Spans == 0 {
		t.Fatal("no spans in exported trace")
	}
	if !check.OK() {
		t.Fatalf("span conservation violated: %v", check.Violations)
	}
}

// TestLazyStoreHandoff runs the networked handoff with lazy warmup:
// the consumer boots from the store immediately and pages translation
// chunks back in over the same transport client on first call, so the
// lazy summary must show transport page-ins with zero misses against
// the healthy store.
func TestLazyStoreHandoff(t *testing.T) {
	store := jumpstart.NewStore()
	ts := httptest.NewServer(transport.NewServer(store, 4096).Handler())
	defer ts.Close()

	var seedOut strings.Builder
	err := run([]string{"-mode", "seeder", "-quick", "-seconds", "600",
		"-store-url", ts.URL}, &seedOut)
	if err != nil {
		t.Fatalf("seeder: %v\n%s", err, seedOut.String())
	}

	var consOut strings.Builder
	err = run([]string{"-mode", "consumer", "-quick", "-seconds", "30",
		"-store-url", ts.URL, "-warmup-mode", "lazy"}, &consOut)
	if err != nil {
		t.Fatalf("lazy consumer: %v\n%s", err, consOut.String())
	}
	out := consOut.String()
	if !strings.Contains(out, "# boot: jumpstart=true") {
		t.Fatalf("lazy consumer did not jump-start:\n%s", out)
	}
	if !strings.Contains(out, "# lazy: armed=") || strings.Contains(out, "armed=0 ") {
		t.Fatalf("lazy summary missing or armed nothing:\n%s", out)
	}
	if !strings.Contains(out, "(transport page-ins=") ||
		strings.Contains(out, "page-ins=0 ") {
		t.Fatalf("page-ins did not travel the transport:\n%s", out)
	}
	if !strings.Contains(out, "misses=0)") {
		t.Fatalf("healthy store missed page-ins:\n%s", out)
	}

	// The mode only makes sense for consumers.
	if err := run([]string{"-mode", "seeder", "-warmup-mode", "lazy"}, &consOut); err == nil {
		t.Fatal("-warmup-mode lazy with -mode seeder accepted")
	}
	if err := run([]string{"-mode", "consumer", "-warmup-mode", "bogus"}, &consOut); err == nil {
		t.Fatal("bogus -warmup-mode accepted")
	}
}

// TestSeederSeries: the seeder prints its whole tick series, from the
// first init tick through the tick in which it exited, and then the
// validate-and-publish summary.
func TestSeederSeries(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-mode", "seeder", "-quick", "-seconds", "600",
		"-package", filepath.Join(t.TempDir(), "p.pkg")}, &out)
	if err != nil {
		t.Fatalf("seeder: %v\n%s", err, out.String())
	}
	var rows []string
	for _, line := range strings.Split(out.String(), "\n") {
		if line != "" && line[0] >= '0' && line[0] <= '9' {
			rows = append(rows, line)
		}
	}
	if len(rows) < 2 {
		t.Fatalf("seeder printed %d tick rows:\n%s", len(rows), out.String())
	}
	if f := strings.Split(rows[len(rows)-1], ","); f[4] != "exited" {
		t.Fatalf("last row %q: phase %q, want exited", rows[len(rows)-1], f[4])
	}
	if !strings.Contains(out.String(), "# seed: attempts=1 quarantined=0\n# package: ") {
		t.Fatalf("missing seed summary before the package line:\n%s", out.String())
	}
}

// TestSeederRevisionStamp: -revision stamps the package file, not
// only the upload.
func TestSeederRevisionStamp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.pkg")
	var out strings.Builder
	err := run([]string{"-mode", "seeder", "-quick", "-revision", "7",
		"-package", path}, &out)
	if err != nil {
		t.Fatalf("seeder: %v\n%s", err, out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := prof.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Meta.Revision != 7 {
		t.Fatalf("package file revision = %d, want 7", pkg.Meta.Revision)
	}
}
