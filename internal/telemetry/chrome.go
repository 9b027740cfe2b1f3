package telemetry

import (
	"io"
	"strconv"
)

// WriteChromeTrace writes the buffered events in the Chrome
// trace_event JSON format (the "JSON Array Format" with complete "X"
// events), loadable directly in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Spans become "X" (complete) events with their
// virtual-time window converted to microseconds; instantaneous events
// become "i" (instant) events. Span IDs and parent links ride along in
// args, and the encoding is hand-rolled like WriteJSONL so the byte
// stream is deterministic.
//
// All events share pid 1 / tid 1: the simulation is single-writer, and
// because child spans are time-contained in their parents (the
// conservation invariant internal/obs validates), Perfetto's
// containment-based nesting renders the causal tree as a flame on one
// track.
func (tr *Trace) WriteChromeTrace(w io.Writer) error {
	if tr == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`+"\n")
		return err
	}
	var b []byte
	b = append(b, `{"traceEvents":[`...)
	if _, err := w.Write(b); err != nil {
		return err
	}
	for i := 0; i < tr.n; i++ {
		ev := &tr.events[(tr.head+i)%len(tr.events)]
		b = b[:0]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n"...)
		if ev.Dur != 0 {
			b = append(b, `{"ph":"X"`...)
		} else {
			b = append(b, `{"ph":"i","s":"t"`...)
		}
		b = append(b, `,"pid":1,"tid":1,"ts":`...)
		b = appendJSONFloat(b, ev.T*1e6)
		if ev.Dur != 0 {
			b = append(b, `,"dur":`...)
			b = appendJSONFloat(b, ev.Dur*1e6)
		}
		b = append(b, `,"cat":`...)
		b = strconv.AppendQuote(b, ev.Cat)
		b = append(b, `,"name":`...)
		b = strconv.AppendQuote(b, ev.Name)
		b = append(b, `,"args":{"span":`...)
		b = strconv.AppendUint(b, ev.Seq, 10)
		if ev.Parent != 0 {
			b = append(b, `,"parent":`...)
			b = strconv.AppendUint(b, ev.Parent, 10)
		}
		for j := range ev.Attrs {
			b = append(b, ',')
			b = appendAttr(b, &ev.Attrs[j])
		}
		b = append(b, `}}`...)
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n]}\n"); err != nil {
		return err
	}
	return nil
}
