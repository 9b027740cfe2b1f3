package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the driver around
// the call (spans inside the program are a later issue).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = root
	Op     int     `json:"op"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the child exits. A nil tracer
// records nothing, so untraced ops pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	op    int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.op,
		Layer: layer, Name: name, Start: time.Since(t.t0).Seconds()})
	return len(t.spans)
}

// end closes the span and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return t.spans[id-1].dur()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the duration of every span whose layer and name
// match (name "" matches any), in recording order.
func durations(spans []span, layer, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Layer == layer && (name == "" || s.Name == name) {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval its child spans cover (children running in parallel
// cover the interval once).
func selfTimes(spans []span) []float64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return ch[a].Start < ch[b].Start })
		covered, edge := 0.0, s.Start
		for _, c := range ch {
			lo, hi := c.Start, c.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// budgetRow is one line of the "which layer owns the wall-clock" table.
type budgetRow struct {
	Layer, Name string
	Seconds     float64
	Share       float64
	N           int
}

// budget aggregates self time by (layer, name) under the given root
// span. Shares are of the summed self time, so the rows sum to 100 %
// by construction; with children running in parallel that sum exceeds
// the root's own duration.
func budget(spans []span, root int) []budgetRow {
	under := map[int]bool{root: true}
	for _, s := range spans { // parents precede children in recording order
		if under[s.Parent] {
			under[s.ID] = true
		}
	}
	self := selfTimes(spans)
	agg := map[[2]string]*budgetRow{}
	total := 0.0
	for i, s := range spans {
		if !under[s.ID] {
			continue
		}
		k := [2]string{s.Layer, s.Name}
		if agg[k] == nil {
			agg[k] = &budgetRow{Layer: s.Layer, Name: s.Name}
		}
		agg[k].Seconds += self[i]
		agg[k].N++
		total += self[i]
	}
	rows := make([]budgetRow, 0, len(agg))
	for _, r := range agg {
		if total > 0 {
			r.Share = r.Seconds / total
		}
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].Seconds != rows[b].Seconds {
			return rows[a].Seconds > rows[b].Seconds
		}
		return rows[a].Layer+rows[a].Name < rows[b].Layer+rows[b].Name
	})
	return rows
}

func writeBudget(w io.Writer, workload string, rows []budgetRow) {
	fmt.Fprintf(w, "# budget %s: share of op host time by layer/call (self time)\n", workload)
	for _, r := range rows {
		fmt.Fprintf(w, "#   %-12s %-24s %6.2f %%  %9.4f s  n=%d\n", r.Layer, r.Name, r.Share*100, r.Seconds, r.N)
	}
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
