package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestNilSafety(t *testing.T) {
	// Every instrument must be a no-op on nil receivers so call sites
	// carry no telemetry-enabled branches.
	var set *Set
	set.Event(1, "c", "n", S("k", "v"))
	set.Span(1, 2, "c", "n")
	set.Counter("x").Inc()
	set.Counter("x").Add(3)
	set.Gauge("g").Set(1)
	set.Histogram("h", []float64{1}).Observe(0.5)
	set.CycleProf().Add(CycleInterp, 10)
	set.CycleProf().SetPhase("x")

	var reg *Registry
	if reg.Counter("x") != nil || reg.Gauge("x") != nil || reg.Histogram("x", nil) != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}

	var tr *Trace
	tr.Event(0, "c", "n")
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil trace must be empty")
	}
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}

	var cp *CycleProfile
	cp.Add(CycleInit, 1)
	cp.AddUint(CycleInit, 1)
	cp.SetPhase("p")
	if cp.Total() != 0 || cp.PhaseTotal("p") != 0 || cp.Bucket("p", CycleInit) != 0 {
		t.Fatal("nil profile must be zero")
	}
	if err := cp.WriteFolded(&buf, "r"); err != nil {
		t.Fatal(err)
	}
}

// TestTelemetryOffAllocFree: a call on a nil set must cost its caller
// nothing, attributes included — whole fleets boot through
// instrumented paths with telemetry off. The recorders copy their
// attributes, so the variadic slice stays on the caller's stack. Run by
// make alloccheck.
func TestTelemetryOffAllocFree(t *testing.T) {
	var set *Set
	n := int64(0)
	avg := testing.AllocsPerRun(200, func() {
		n++
		set.Event(1, "c", "n", I("a", n), S("k", "v"))
		set.Span(1, 2, "c", "n", I("a", n), B("b", true))
		set.EndSpan(set.BeginSpan(), 0, 1, 2, "c", "n", I("a", n), S("k", "v"))
		set.SpanUnder(0, 1, 2, "c", "n", I("a", n), F("f", 0.5))
	})
	if avg != 0 {
		t.Fatalf("telemetry-off calls allocate: %v allocs per round", avg)
	}
}

// TestTraceCopiesAttrs: a recorded event keeps the attributes it was
// given even when the caller reuses its slice afterwards.
func TestTraceCopiesAttrs(t *testing.T) {
	tr := NewTrace(4)
	attrs := []Attr{I("a", 1)}
	tr.Event(1, "c", "n", attrs...)
	tr.SpanUnder(0, 1, 2, "c", "n", attrs...)
	tr.EndSpan(tr.BeginSpan(), 0, 1, 2, "c", "n", attrs...)
	attrs[0] = I("a", 2)
	for _, ev := range tr.Events() {
		if ev.Attrs[0].num != 1 {
			t.Fatalf("event %d attribute changed with the caller's slice: %v", ev.Seq, ev.Attrs[0].num)
		}
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if r.Counter("reqs") != c {
		t.Fatal("counter not memoized")
	}

	g := r.Gauge("depth")
	g.Set(2.5)
	g.Set(4)
	if g.Value() != 4 {
		t.Fatalf("gauge = %v", g.Value())
	}

	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 556.5 {
		t.Fatalf("hist count=%d sum=%v", h.Count(), h.Sum())
	}
	_, counts := h.Buckets()
	// SearchFloat64s: v=1 lands in the first bucket > it... bounds are
	// upper bounds; 1 goes to bucket index sort.SearchFloat64s([1,10,100],1)=0.
	want := []uint64{2, 1, 1, 1}
	for i, n := range want {
		if counts[i] != n {
			t.Fatalf("bucket[%d] = %d, want %d (all %v)", i, counts[i], n, counts)
		}
	}
}

func TestRegistryWriteJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Gauge("z").Set(1.25)
	r.Histogram("h", []float64{10}).Observe(3)

	var buf1, buf2 bytes.Buffer
	if err := r.WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf1.String() != buf2.String() {
		t.Fatal("non-deterministic JSON export")
	}
	// Sorted names, valid JSON.
	if !json.Valid(buf1.Bytes()) {
		t.Fatalf("invalid JSON: %s", buf1.String())
	}
	if strings.Index(buf1.String(), `"a"`) > strings.Index(buf1.String(), `"b"`) {
		t.Fatal("counter names not sorted")
	}
	var parsed struct {
		Counters   map[string]uint64 `json:"counters"`
		Gauges     map[string]float64
		Histograms map[string]struct {
			Count   uint64
			Sum     float64
			Le      []float64
			Buckets []uint64
		}
	}
	if err := json.Unmarshal(buf1.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Counters["a"] != 1 || parsed.Counters["b"] != 2 ||
		parsed.Gauges["z"] != 1.25 || parsed.Histograms["h"].Count != 1 {
		t.Fatalf("parsed = %+v", parsed)
	}
}

func TestTraceRingAndJSONL(t *testing.T) {
	tr := NewTrace(3)
	tr.Event(1, "server", "a", S("mode", "seeder"), I("n", 7))
	tr.Span(2, 4, "jit", "compile", F("bytes", 128.5), B("hot", true))
	if tr.Len() != 2 || tr.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	tr.Event(5, "server", "c")
	tr.Event(6, "server", "d") // overwrites "a"
	if tr.Len() != 3 || tr.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	evs := tr.Events()
	if evs[0].Name != "compile" || evs[2].Name != "d" {
		t.Fatalf("ring order wrong: %+v", evs)
	}
	if evs[0].Seq != 2 {
		t.Fatalf("seq = %d", evs[0].Seq)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("invalid JSONL line: %s", line)
		}
	}
	var ev struct {
		Seq   uint64
		T     float64
		Dur   float64
		Cat   string
		Name  string
		Attrs map[string]any
	}
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Name != "compile" || ev.Dur != 2 || ev.Attrs["hot"] != true ||
		ev.Attrs["bytes"] != 128.5 {
		t.Fatalf("event = %+v", ev)
	}
}

func TestCycleProfileBucketsAndExport(t *testing.T) {
	p := NewCycleProfile()
	p.Add(CycleInit, 100)
	p.AddUint(CycleWarmup, 50)
	p.SetPhase("serving")
	p.Add(CycleInterp, 30)
	p.Add(CycleJITExec, 20)
	p.SetPhase("serving") // idempotent
	p.Add(CycleGuard, 1)

	if p.Total() != 201 {
		t.Fatalf("total = %v", p.Total())
	}
	if p.PhaseTotal("init") != 150 || p.PhaseTotal("serving") != 51 {
		t.Fatalf("phase totals: init=%v serving=%v",
			p.PhaseTotal("init"), p.PhaseTotal("serving"))
	}
	if p.Bucket("serving", CycleInterp) != 30 || p.Bucket("nope", CycleInterp) != 0 {
		t.Fatal("bucket lookup")
	}
	if got := p.Phases(); len(got) != 2 || got[0] != "init" || got[1] != "serving" {
		t.Fatalf("phases = %v", got)
	}

	var folded bytes.Buffer
	if err := p.WriteFolded(&folded, "server"); err != nil {
		t.Fatal(err)
	}
	want := "server;init;init 100\n" +
		"server;init;warmup-requests 50\n" +
		"server;serving;interp-dispatch 30\n" +
		"server;serving;jit-exec 20\n" +
		"server;serving;guard-fail 1\n"
	if folded.String() != want {
		t.Fatalf("folded:\n%s\nwant:\n%s", folded.String(), want)
	}
}

func TestCycleBucketNames(t *testing.T) {
	seen := map[string]bool{}
	for b := CycleBucket(0); b < NumCycleBuckets; b++ {
		name := b.String()
		if name == "" || strings.Contains(name, " ") || seen[name] {
			t.Fatalf("bad bucket name %q", name)
		}
		seen[name] = true
	}
	if CycleBucket(200).String() != "bucket(200)" {
		t.Fatal("out-of-range bucket name")
	}
}

func TestSetBundle(t *testing.T) {
	s := NewSet()
	s.Counter("c").Inc()
	s.Event(1, "x", "y")
	s.CycleProf().Add(CycleInterp, 2)
	if s.Metrics.Counter("c").Value() != 1 || s.Trace.Len() != 1 || s.Cycles.Total() != 2 {
		t.Fatal("set not wired")
	}
}

// TestEmptySnapshotQuantilesAndJSON pins the empty-snapshot behavior a
// fleet export depends on: a registered-but-never-observed histogram
// must report quantile 0 (not NaN from a 0/0 rank division), and
// WriteJSON over such a registry must stay legal JSON — including when
// a gauge holds a value JSON cannot carry (NaN/Inf encode as null).
func TestEmptySnapshotQuantilesAndJSON(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("boot.lat", []float64{1, 2, 4})
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty histogram Quantile(%v) = %v, want 0", q, got)
		}
	}
	// A histogram registered with no bounds at all must also stay at 0,
	// observed or not.
	nb := r.Histogram("no.bounds", nil)
	nb.Observe(7)
	if got := nb.Quantile(0.5); got != 0 {
		t.Fatalf("boundless histogram Quantile = %v, want 0", got)
	}
	r.Gauge("bad.gauge").Set(math.NaN())
	r.Gauge("inf.gauge").Set(math.Inf(1))

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if !json.Valid(out) {
		t.Fatalf("empty-snapshot WriteJSON is not valid JSON:\n%s", out)
	}
	if bytes.Contains(out, []byte("NaN")) || bytes.Contains(out, []byte("Inf")) {
		t.Fatalf("WriteJSON leaked a non-JSON float:\n%s", out)
	}
	if !bytes.Contains(out, []byte(`"bad.gauge":null`)) {
		t.Fatalf("NaN gauge did not encode as null:\n%s", out)
	}
	if !bytes.Contains(out, []byte(`"boot.lat":{"count":0,"sum":0,"p50":0,"p95":0,"p99":0`)) {
		t.Fatalf("unobserved histogram snapshot malformed:\n%s", out)
	}
}
