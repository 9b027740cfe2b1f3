package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"jumpstart/internal/telemetry"
)

// Sinks is the telemetry-file flag group the CLIs share: -trace,
// -metrics, -cycleprof and -spans. It declares the flags, builds the
// telemetry set they need and writes every file once the run is over.
type Sinks struct {
	trace, metrics, cycleProf, spans string // output paths; "" = off
	root                             string // folded-stack root: the command name
}

// NewSinks declares the four sink flags on fs. The cycle profile's
// folded stacks are rooted at the flag set's name.
func NewSinks(fs *flag.FlagSet) *Sinks {
	s := &Sinks{root: fs.Name()}
	fs.StringVar(&s.trace, "trace", "", "write the structured event trace as JSONL")
	fs.StringVar(&s.metrics, "metrics", "", "write the metrics registry snapshot as JSON")
	fs.StringVar(&s.cycleProf, "cycleprof", "", "write the virtual-cycle profile as folded stacks")
	fs.StringVar(&s.spans, "spans", "", "write the causal boot-span trace (.json = Chrome trace_event for Perfetto, else JSONL)")
	return s
}

// NewSet returns the telemetry set the sinks need: nil when no sink is
// set, and one with a telemetry.SpanTraceCapacity trace ring when
// -spans is.
func (s *Sinks) NewSet() *telemetry.Set {
	if s.trace == "" && s.metrics == "" && s.cycleProf == "" && s.spans == "" {
		return nil
	}
	tel := telemetry.NewSet()
	if s.spans != "" {
		tel.Trace = telemetry.NewTrace(telemetry.SpanTraceCapacity)
	}
	return tel
}

// Write exports tel to every set sink; a nil set writes nothing. With
// -spans it first validates the span trees and prints the one-line
// "# spans:" summary to w. A span path ending in .json gets Chrome
// trace_event, any other JSONL; the trace is JSONL, the metrics
// snapshot JSON and the cycle profile folded stacks.
func (s *Sinks) Write(tel *telemetry.Set, w io.Writer) error {
	if tel == nil {
		return nil
	}
	writeSpans := tel.Trace.WriteJSONL
	if s.spans != "" {
		check := ValidateSpans(tel.Trace.Events())
		status := "OK"
		if !check.OK() {
			status = fmt.Sprintf("%d VIOLATIONS", len(check.Violations))
		}
		fmt.Fprintf(w, "# spans: %d spans, %d instants, %d roots, %d orphans — %s\n",
			check.Spans, check.Instants, check.Roots, check.Orphans, status)
		if strings.HasSuffix(s.spans, ".json") {
			writeSpans = tel.Trace.WriteChromeTrace
		}
	}
	for _, f := range []struct {
		path, what string
		write      func(io.Writer) error
	}{
		{s.spans, "span", writeSpans},
		{s.trace, "trace", tel.Trace.WriteJSONL},
		{s.metrics, "metrics", tel.Metrics.WriteJSON},
		{s.cycleProf, "cycle-profile", func(w io.Writer) error { return tel.Cycles.WriteFolded(w, s.root) }},
	} {
		if f.path == "" {
			continue
		}
		if err := writeFile(f.path, f.write); err != nil {
			return fmt.Errorf("telemetry: %s export: %w", f.what, err)
		}
	}
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
