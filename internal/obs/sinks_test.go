package obs

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jumpstart/internal/telemetry"
)

// parseSinks declares the sink flags on a fresh "testcmd" flag set and
// parses args into them.
func parseSinks(t *testing.T, args ...string) *Sinks {
	t.Helper()
	fs := flag.NewFlagSet("testcmd", flag.ContinueOnError)
	s := NewSinks(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return s
}

// spanSet is a telemetry set holding one closed root span.
func spanSet() *telemetry.Set {
	tel := telemetry.NewSet()
	id := tel.BeginSpan()
	tel.EndSpan(id, 0, 0, 1, "boot", "boot")
	tel.Cycles.Add(telemetry.CycleInterp, 5)
	return tel
}

func TestSinksNoPathBuildsNilSet(t *testing.T) {
	s := parseSinks(t)
	if tel := s.NewSet(); tel != nil {
		t.Fatalf("no sink set, got a telemetry set %+v", tel)
	}
	var out strings.Builder
	if err := s.Write(nil, &out); err != nil || out.Len() != 0 {
		t.Fatalf("nil set: err=%v, printed %q", err, out.String())
	}
	// drops fills tel's trace one event past the default ring.
	drops := func(tel *telemetry.Set) uint64 {
		for i := 0; i <= telemetry.DefaultTraceCapacity; i++ {
			tel.Event(0, "c", "e")
		}
		return tel.Trace.Dropped()
	}
	for _, args := range [][]string{{"-trace", "t"}, {"-metrics", "m"}, {"-cycleprof", "c"}} {
		tel := parseSinks(t, args...).NewSet()
		if tel == nil || drops(tel) != 1 {
			t.Fatalf("%v: want a set with the default trace ring", args)
		}
	}
	if tel := parseSinks(t, "-spans", "s.json").NewSet(); tel == nil || drops(tel) != 0 {
		t.Fatal("-spans: want a set with the span-sized trace ring")
	}
}

func TestSinksSpanFormatByExtension(t *testing.T) {
	dir := t.TempDir()
	tel := spanSet()

	jsonl := filepath.Join(dir, "spans.jsonl")
	var out strings.Builder
	if err := parseSinks(t, "-spans", jsonl).Write(tel, &out); err != nil {
		t.Fatal(err)
	}
	if want := "# spans: 1 spans, 0 instants, 1 roots, 0 orphans — OK\n"; out.String() != want {
		t.Fatalf("summary = %q, want %q", out.String(), want)
	}
	data, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), `{"seq":`) {
		t.Fatalf("jsonl export = %s", data)
	}

	chrome := filepath.Join(dir, "spans.json")
	if err := parseSinks(t, "-spans", chrome).Write(tel, &out); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), `{"traceEvents":[`) || !json.Valid(data) {
		t.Fatalf("chrome export = %s", data)
	}

	// A nil set writes nothing, whatever paths are set.
	nope := filepath.Join(dir, "nope.json")
	if err := parseSinks(t, "-spans", nope, "-trace", nope+"l").Write(nil, &out); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(nope); !os.IsNotExist(err) {
		t.Fatalf("nil set wrote %s (stat err %v)", nope, err)
	}
}

func TestSinksWriteEveryFile(t *testing.T) {
	dir := t.TempDir()
	tel := spanSet()
	tr, m, c := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "m.json"), filepath.Join(dir, "c.folded")
	var out strings.Builder
	if err := parseSinks(t, "-trace", tr, "-metrics", m, "-cycleprof", c).Write(tel, &out); err != nil {
		t.Fatal(err)
	}
	// An empty -spans path prints no summary and writes no span file.
	if out.Len() != 0 {
		t.Fatalf("printed %q without -spans", out.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 3 {
		t.Fatalf("wrote %v (err %v), want exactly the three set files", entries, err)
	}
	folded, err := os.ReadFile(c)
	if err != nil || !strings.HasPrefix(string(folded), "testcmd;init;interp-dispatch 5") {
		t.Fatalf("folded profile = %q (err %v), want rooted at the flag set name", folded, err)
	}
	metrics, err := os.ReadFile(m)
	if err != nil || !json.Valid(metrics) {
		t.Fatalf("metrics = %q (err %v)", metrics, err)
	}

	bad := filepath.Join(dir, "missing", "m.json")
	err = parseSinks(t, "-metrics", bad).Write(tel, &out)
	if err == nil || !strings.Contains(err.Error(), "telemetry: metrics export") {
		t.Fatalf("unwritable path: err = %v", err)
	}
}
