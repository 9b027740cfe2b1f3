package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()

	// Empty histogram and bound-less histogram report 0.
	if got := r.Histogram("empty", []float64{1, 2}).Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
	nb := r.Histogram("nobounds", nil)
	nb.Observe(7)
	if got := nb.Quantile(0.5); got != 0 {
		t.Fatalf("no-bounds quantile = %v", got)
	}

	// Single finite bucket: uniform interpolation over (0, 100].
	single := r.Histogram("single", []float64{100})
	for i := 0; i < 3; i++ {
		single.Observe(50)
	}
	if got := single.Quantile(0.5); got != 50 {
		t.Fatalf("single-bucket p50 = %v, want 50", got)
	}
	if got := single.Quantile(1); got != 100 {
		t.Fatalf("single-bucket p100 = %v, want 100", got)
	}

	// Multi-bucket interpolation: 4 in (0,10], 4 in (10,20], 2 overflow.
	h := r.Histogram("multi", []float64{10, 20})
	for i := 0; i < 4; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	h.Observe(999)
	h.Observe(999)
	// rank 5 lands 1/4 into the (10,20] bucket.
	if got := h.Quantile(0.5); got != 12.5 {
		t.Fatalf("p50 = %v, want 12.5", got)
	}
	// rank 9.5 lands in the overflow bucket -> largest finite bound.
	if got := h.Quantile(0.95); got != 20 {
		t.Fatalf("p95 = %v, want 20 (overflow reports largest bound)", got)
	}
	// q is clamped to [0, 1].
	if h.Quantile(-3) != h.Quantile(0) || h.Quantile(7) != h.Quantile(1) {
		t.Fatal("q not clamped")
	}

	// Every observation in the overflow bucket: largest finite bound.
	ov := r.Histogram("overflow", []float64{10})
	ov.Observe(50)
	ov.Observe(60)
	if got := ov.Quantile(0.5); got != 10 {
		t.Fatalf("overflow-only p50 = %v, want 10", got)
	}

	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile must be 0")
	}
}

func TestRegistryJSONQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{10, 20})
	for i := 0; i < 4; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Histograms map[string]struct {
			P50 float64 `json:"p50"`
			P95 float64 `json:"p95"`
			P99 float64 `json:"p99"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("%v in %s", err, buf.String())
	}
	got := parsed.Histograms["lat"]
	if got.P50 != h.Quantile(0.50) || got.P95 != h.Quantile(0.95) || got.P99 != h.Quantile(0.99) {
		t.Fatalf("exported quantiles %+v disagree with Quantile()", got)
	}
}

func TestSpanIDsAndParents(t *testing.T) {
	tr := NewTrace(8)
	root := tr.BeginSpan()
	if root != 1 {
		t.Fatalf("first span ID = %d, want 1", root)
	}
	child := tr.SpanUnder(root, 1, 2, "boot", "fetch", S("store", "a"))
	if child != 2 {
		t.Fatalf("child ID = %d, want 2", child)
	}
	grand := tr.SpanUnder(child, 1, 1.5, "boot", "rpc.chunk")
	tr.EndSpan(root, 0, 0, 3, "boot", "boot", S("outcome", "ok"))

	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d", len(evs))
	}
	// Buffer order is record order: child, grandchild, then the root
	// (EndSpan lands after its children) — Seq is NOT monotonic here.
	if evs[0].Seq != child || evs[0].Parent != root ||
		evs[1].Seq != grand || evs[1].Parent != child ||
		evs[2].Seq != root || evs[2].Parent != 0 {
		t.Fatalf("tree wrong: %+v", evs)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var ev struct {
		Seq    uint64
		Parent uint64
		Dur    float64
	}
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 2 || ev.Parent != 1 || ev.Dur != 1 {
		t.Fatalf("JSONL child = %+v", ev)
	}
	if strings.Contains(lines[2], `"parent"`) {
		t.Fatalf("root span must omit parent: %s", lines[2])
	}

	// Nil safety: BeginSpan hands out the 0 (none) ID, EndSpan with 0
	// records nothing.
	var nilTr *Trace
	if nilTr.BeginSpan() != 0 || nilTr.SpanUnder(0, 0, 1, "c", "n") != 0 {
		t.Fatal("nil trace must return ID 0")
	}
	nilTr.EndSpan(0, 0, 0, 1, "c", "n")
	var nilSet *Set
	if nilSet.BeginSpan() != 0 || nilSet.SpanUnder(0, 0, 1, "c", "n") != 0 {
		t.Fatal("nil set must return ID 0")
	}
	nilSet.EndSpan(0, 0, 0, 1, "c", "n")
	tr.EndSpan(0, 0, 0, 1, "c", "n") // id 0: must not record
	if tr.Len() != 3 {
		t.Fatal("EndSpan(0) must be a no-op")
	}
}

func TestTraceWraparoundKeepsAttrs(t *testing.T) {
	// Attribute payloads (and their order) must survive ring eviction:
	// each surviving event carries exactly the attrs it was recorded
	// with, in recording order.
	tr := NewTrace(2)
	tr.Event(1, "c", "a", S("k", "va"), I("i", 1))
	tr.Event(2, "c", "b", S("k", "vb"), I("i", 2), B("flag", true))
	tr.Event(3, "c", "c", F("x", 3.5), S("k", "vc"))
	if tr.Len() != 2 || tr.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	// Oldest survivor is "b" with its full ordered attr set.
	if !strings.Contains(lines[0], `"attrs":{"k":"vb","i":2,"flag":true}`) {
		t.Fatalf("evicted-adjacent attrs wrong: %s", lines[0])
	}
	// "c" preserves recording order (float before string).
	if !strings.Contains(lines[1], `"attrs":{"x":3.5,"k":"vc"}`) {
		t.Fatalf("attr order not preserved: %s", lines[1])
	}
}

func TestSpanExportCapacityExceededMidTree(t *testing.T) {
	// A span tree larger than the ring: children may outlive an evicted
	// sibling, and the root (recorded last via EndSpan) must still link
	// correctly. Exports must stay well-formed.
	tr := NewTrace(3)
	root := tr.BeginSpan()                         // ID 1, recorded later
	c1 := tr.SpanUnder(root, 0, 1, "boot", "s1")   // ID 2
	c2 := tr.SpanUnder(root, 1, 2, "boot", "s2")   // ID 3
	tr.EndSpan(root, 0, 0, 2.5, "boot", "boot")    // ring: c1 c2 root
	c4 := tr.SpanUnder(root, 2, 2.5, "boot", "s3") // ID 4, evicts c1
	if tr.Dropped() != 1 {
		t.Fatalf("dropped = %d", tr.Dropped())
	}
	evs := tr.Events()
	wantSeq := []uint64{c2, root, c4}
	wantParent := []uint64{root, 0, root}
	for i, ev := range evs {
		if ev.Seq != wantSeq[i] || ev.Parent != wantParent[i] {
			t.Fatalf("ev[%d] = seq %d parent %d, want %d/%d",
				i, ev.Seq, ev.Parent, wantSeq[i], wantParent[i])
		}
	}
	_ = c1

	var jl bytes.Buffer
	if err := tr.WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jl.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("JSONL lines = %d", len(lines))
	}
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("invalid JSONL: %s", line)
		}
	}

	var ct bytes.Buffer
	if err := tr.WriteChromeTrace(&ct); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(ct.Bytes()) {
		t.Fatalf("invalid Chrome trace: %s", ct.String())
	}
	var chrome struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Name string  `json:"name"`
			Args struct {
				Span   uint64 `json:"span"`
				Parent uint64 `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(ct.Bytes(), &chrome); err != nil {
		t.Fatal(err)
	}
	if len(chrome.TraceEvents) != 3 {
		t.Fatalf("chrome events = %d", len(chrome.TraceEvents))
	}
	// The root span: ph "X", microsecond units, no parent arg.
	rootEv := chrome.TraceEvents[1]
	if rootEv.Ph != "X" || rootEv.Ts != 0 || rootEv.Dur != 2.5e6 ||
		rootEv.Args.Span != root || rootEv.Args.Parent != 0 {
		t.Fatalf("chrome root = %+v", rootEv)
	}
	if chrome.TraceEvents[2].Args.Parent != root {
		t.Fatalf("chrome child parent = %+v", chrome.TraceEvents[2])
	}
}

func TestChromeTraceInstantAndNil(t *testing.T) {
	tr := NewTrace(4)
	tr.Event(1.5, "fleet", "crash", S("reason", "defect"))
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"ph":"i","s":"t"`) {
		t.Fatalf("instant event not marked: %s", buf.String())
	}
	if !strings.Contains(buf.String(), `"ts":1.5e+06`) &&
		!strings.Contains(buf.String(), `"ts":1500000`) {
		t.Fatalf("ts not in microseconds: %s", buf.String())
	}

	var nilTr *Trace
	buf.Reset()
	if err := nilTr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) || !strings.Contains(buf.String(), `"traceEvents":[]`) {
		t.Fatalf("nil chrome trace = %s", buf.String())
	}
}
