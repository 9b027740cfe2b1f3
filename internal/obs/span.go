package obs

import (
	"fmt"
	"sort"

	"jumpstart/internal/telemetry"
)

// SpanNode is one span (or instant event) in a reconstructed causal
// tree. Children are ordered by (start time, seq) so the tree shape is
// deterministic regardless of recording order (EndSpan lands parents
// after their children).
type SpanNode struct {
	Event    telemetry.Event
	Children []*SpanNode
}

// SpanTree is the forest reconstructed from a trace buffer.
type SpanTree struct {
	Roots []*SpanNode
	// Orphans counts events whose Parent ID is missing from the buffer
	// — the expected outcome when the ring evicted the parent (they are
	// promoted to roots rather than silently dropped).
	Orphans int
}

// BuildSpanTree reconstructs the causal forest from a trace buffer
// (telemetry.Trace.Events output). Events with Parent 0 are roots;
// events whose parent was evicted from the ring are promoted to roots
// and counted in Orphans.
func BuildSpanTree(events []telemetry.Event) *SpanTree {
	t := &SpanTree{}
	nodes := make(map[uint64]*SpanNode, len(events))
	order := make([]*SpanNode, 0, len(events))
	for _, ev := range events {
		n := &SpanNode{Event: ev}
		nodes[ev.Seq] = n
		order = append(order, n)
	}
	for _, n := range order {
		p := n.Event.Parent
		if p == 0 {
			t.Roots = append(t.Roots, n)
			continue
		}
		parent, ok := nodes[p]
		if !ok || parent == n {
			t.Orphans++
			t.Roots = append(t.Roots, n)
			continue
		}
		parent.Children = append(parent.Children, n)
	}
	sortNodes(t.Roots)
	for _, n := range order {
		sortNodes(n.Children)
	}
	return t
}

func sortNodes(ns []*SpanNode) {
	sort.Slice(ns, func(i, j int) bool {
		a, b := &ns[i].Event, &ns[j].Event
		if a.T != b.T {
			return a.T < b.T
		}
		return a.Seq < b.Seq
	})
}

// SpanCheck is the result of validating a span forest against the
// duration-conservation invariant.
type SpanCheck struct {
	Spans      int // events with non-zero duration
	Instants   int // zero-duration events
	Roots      int
	Orphans    int
	Violations []string // one line per invariant breach, deterministic order
}

// OK reports whether no invariant was violated.
func (c SpanCheck) OK() bool { return len(c.Violations) == 0 }

// ValidateSpans rebuilds the causal forest and checks the
// duration-conservation invariant, the span-tree analogue of the
// cycle-conservation check in internal/server:
//
//   - every child is time-contained in its parent
//     (child.T >= parent.T and child end <= parent end), and
//   - the summed duration of a span's direct children does not exceed
//     the parent's own duration (children partition a subset of the
//     parent's virtual time, never more).
//
// Instant events only face the containment check. Comparisons carry a
// small relative epsilon for float accumulation. Violations are
// reported in deterministic tree-walk order (roots and children both
// sorted by start time, then seq).
func ValidateSpans(events []telemetry.Event) SpanCheck {
	tree := BuildSpanTree(events)
	check := SpanCheck{Roots: len(tree.Roots), Orphans: tree.Orphans}
	var walk func(n *SpanNode)
	walk = func(n *SpanNode) {
		ev := &n.Event
		if ev.Dur != 0 {
			check.Spans++
		} else {
			check.Instants++
		}
		pEnd := ev.T + ev.Dur
		eps := 1e-9 * (1 + ev.Dur)
		childSum := 0.0
		for _, ch := range n.Children {
			c := &ch.Event
			if c.T < ev.T-eps || c.T+c.Dur > pEnd+eps {
				check.Violations = append(check.Violations, fmt.Sprintf(
					"span %d %q [%g,%g] escapes parent %d %q [%g,%g]",
					c.Seq, c.Name, c.T, c.T+c.Dur, ev.Seq, ev.Name, ev.T, pEnd))
			}
			childSum += c.Dur
		}
		if childSum > ev.Dur+eps {
			check.Violations = append(check.Violations, fmt.Sprintf(
				"span %d %q children sum %g exceeds parent duration %g",
				ev.Seq, ev.Name, childSum, ev.Dur))
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	for _, root := range tree.Roots {
		walk(root)
	}
	return check
}
