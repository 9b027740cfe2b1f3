package telemetry

import (
	"io"
	"strconv"
)

// DefaultTraceCapacity bounds the event ring when NewTrace is given a
// non-positive capacity.
const DefaultTraceCapacity = 8192

// SpanTraceCapacity is the ring size for runs whose span trees are
// exported: a full deployment's boot spans, or a long server run's
// phase spans with their retry children, must not evict each other's
// parents.
const SpanTraceCapacity = 1 << 17

// Attr is one ordered key/value attribute of a trace event. Attribute
// order is preserved in the JSONL export, keeping output deterministic
// (Go map iteration would not be).
type Attr struct {
	Key  string
	str  string
	num  float64
	kind attrKind
}

type attrKind uint8

const (
	attrString attrKind = iota
	attrInt
	attrFloat
	attrBool
)

// S builds a string attribute.
func S(key, val string) Attr { return Attr{Key: key, str: val, kind: attrString} }

// I builds an integer attribute.
func I(key string, val int64) Attr { return Attr{Key: key, num: float64(val), kind: attrInt} }

// F builds a float attribute.
func F(key string, val float64) Attr { return Attr{Key: key, num: val, kind: attrFloat} }

// B builds a boolean attribute.
func B(key string, val bool) Attr {
	a := Attr{Key: key, kind: attrBool}
	if val {
		a.num = 1
	}
	return a
}

// Event is one structured trace record. T is virtual seconds (the
// simulation clock, never wall time — wall time would break
// determinism). Dur is non-zero for spans.
//
// Seq doubles as the event's span ID: it is drawn from the trace's
// single monotonic counter, so IDs are deterministic (no randomness)
// and unique for the life of the trace. Parent links a span into a
// causal tree — 0 means root. Children may be recorded before their
// parent (the parent's ID is reserved with BeginSpan and the parent
// event lands once its end time is known), so Seq is not monotonic in
// buffer order when span trees are in play.
type Event struct {
	Seq    uint64
	Parent uint64
	T      float64
	Dur    float64
	Cat    string
	Name   string
	Attrs  []Attr
}

// Trace is a bounded ring buffer of events. When full, the oldest
// events are overwritten and counted as dropped. Single-writer: record
// only from the simulation goroutine.
type Trace struct {
	events  []Event
	head    int // index of the oldest event
	n       int // events currently in the ring
	seq     uint64
	dropped uint64
}

// NewTrace builds a trace ring holding up to capacity events
// (DefaultTraceCapacity when capacity <= 0).
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Trace{events: make([]Event, 0, capacity)}
}

// Event records an instantaneous event at virtual time t.
func (tr *Trace) Event(t float64, cat, name string, attrs ...Attr) {
	tr.Span(t, t, cat, name, attrs...)
}

// Span records an event covering [t0, t1] virtual seconds.
func (tr *Trace) Span(t0, t1 float64, cat, name string, attrs ...Attr) {
	if tr == nil {
		return
	}
	tr.seq++
	tr.record(Event{Seq: tr.seq, T: t0, Dur: t1 - t0, Cat: cat, Name: name, Attrs: copyAttrs(attrs)})
}

// BeginSpan reserves a span ID without recording anything. Use it when
// a span's end time is not yet known but its children need a parent to
// reference; close it later with EndSpan. IDs come off the same
// sequence counter as every other event, so they are deterministic. A
// nil trace returns 0 (the root/none ID).
func (tr *Trace) BeginSpan() uint64 {
	if tr == nil {
		return 0
	}
	tr.seq++
	return tr.seq
}

// EndSpan records the span reserved by BeginSpan: id is the reserved
// ID, parent the enclosing span (0 for root), [t0, t1] the covered
// virtual-time window. No-op when id is 0 (the nil-trace BeginSpan
// result), so instrumented code needs no "is tracing on?" branch.
func (tr *Trace) EndSpan(id, parent uint64, t0, t1 float64, cat, name string, attrs ...Attr) {
	if tr == nil || id == 0 {
		return
	}
	tr.record(Event{Seq: id, Parent: parent, T: t0, Dur: t1 - t0, Cat: cat, Name: name, Attrs: copyAttrs(attrs)})
}

// SpanUnder records a complete child span under parent and returns its
// ID (0 on a nil trace).
func (tr *Trace) SpanUnder(parent uint64, t0, t1 float64, cat, name string, attrs ...Attr) uint64 {
	if tr == nil {
		return 0
	}
	tr.seq++
	tr.record(Event{Seq: tr.seq, Parent: parent, T: t0, Dur: t1 - t0, Cat: cat, Name: name, Attrs: copyAttrs(attrs)})
	return tr.seq
}

// copyAttrs gives an event its own attribute slice. Storing the
// caller's variadic slice would make it escape at every call site, so
// the caller would pay a heap allocation even with tracing off.
func copyAttrs(attrs []Attr) []Attr { return append([]Attr(nil), attrs...) }

// record appends ev to the ring, overwriting the oldest when full.
func (tr *Trace) record(ev Event) {
	if len(tr.events) < cap(tr.events) {
		tr.events = append(tr.events, ev)
		tr.n++
		return
	}
	// Ring full: overwrite the oldest.
	tr.events[tr.head] = ev
	tr.head = (tr.head + 1) % len(tr.events)
	tr.dropped++
}

// Len returns the number of buffered events.
func (tr *Trace) Len() int {
	if tr == nil {
		return 0
	}
	return tr.n
}

// Dropped returns how many events were overwritten.
func (tr *Trace) Dropped() uint64 {
	if tr == nil {
		return 0
	}
	return tr.dropped
}

// Events returns the buffered events oldest-first.
func (tr *Trace) Events() []Event {
	if tr == nil {
		return nil
	}
	out := make([]Event, 0, tr.n)
	for i := 0; i < tr.n; i++ {
		out = append(out, tr.events[(tr.head+i)%len(tr.events)])
	}
	return out
}

// WriteJSONL writes one JSON object per buffered event, oldest first.
// The encoding is hand-rolled so attribute order (and therefore the
// byte stream) is deterministic.
func (tr *Trace) WriteJSONL(w io.Writer) error {
	if tr == nil {
		return nil
	}
	var b []byte
	for i := 0; i < tr.n; i++ {
		ev := &tr.events[(tr.head+i)%len(tr.events)]
		b = b[:0]
		b = append(b, `{"seq":`...)
		b = strconv.AppendUint(b, ev.Seq, 10)
		b = append(b, `,"t":`...)
		b = appendJSONFloat(b, ev.T)
		if ev.Dur != 0 {
			b = append(b, `,"dur":`...)
			b = appendJSONFloat(b, ev.Dur)
		}
		if ev.Parent != 0 {
			b = append(b, `,"parent":`...)
			b = strconv.AppendUint(b, ev.Parent, 10)
		}
		b = append(b, `,"cat":`...)
		b = strconv.AppendQuote(b, ev.Cat)
		b = append(b, `,"name":`...)
		b = strconv.AppendQuote(b, ev.Name)
		if len(ev.Attrs) > 0 {
			b = append(b, `,"attrs":{`...)
			for j := range ev.Attrs {
				if j > 0 {
					b = append(b, ',')
				}
				b = appendAttr(b, &ev.Attrs[j])
			}
			b = append(b, '}')
		}
		b = append(b, "}\n"...)
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// appendAttr appends a as one JSON object member, "key":value. Both
// trace writers encode attributes through it; each keeps its own
// separators.
func appendAttr(b []byte, a *Attr) []byte {
	b = strconv.AppendQuote(b, a.Key)
	b = append(b, ':')
	switch a.kind {
	case attrString:
		b = strconv.AppendQuote(b, a.str)
	case attrInt:
		b = strconv.AppendInt(b, int64(a.num), 10)
	case attrFloat:
		b = appendJSONFloat(b, a.num)
	case attrBool:
		b = strconv.AppendBool(b, a.num != 0)
	}
	return b
}
