package trace

import "sort"

// SpanNode is one span in the nested per-rank span tree — the JSON
// shape the render service serves at /traces/{id} and embeds in SLO
// diagnostic bundles. Children are spans wholly contained in this
// span's interval on the same rank.
type SpanNode struct {
	Name     string      `json:"name"`
	Phase    string      `json:"phase"`
	Rank     int         `json:"rank"`
	StartSec float64     `json:"start_sec"`
	DurSec   float64     `json:"dur_sec"`
	Children []*SpanNode `json:"children,omitempty"`
}

// SpanTree assembles the recorded events into a forest of nested
// spans: per rank, a span becomes the child of the innermost earlier
// span whose interval contains its start. Events carry only start and
// duration, so containment is decided on the timeline — which is exact
// for the pipeline's well-nested Begin/End and Emit/EmitNested usage.
// Roots are ordered by (rank, start); siblings keep timeline order.
// The nil tracer returns nil.
func (t *Tracer) SpanTree() []*SpanNode {
	if t == nil {
		return nil
	}
	events := t.Events() // sorted by (rank, start, insertion)
	// A parent span is recorded at End — after its children — so equal
	// starts need the longer (containing) span first.
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Rank != events[j].Rank {
			return events[i].Rank < events[j].Rank
		}
		if events[i].Start != events[j].Start {
			return events[i].Start < events[j].Start
		}
		return events[i].Dur > events[j].Dur
	})

	var roots []*SpanNode
	var stack []*SpanNode
	lastRank := -1
	for _, e := range events {
		if e.Rank != lastRank {
			stack = stack[:0]
			lastRank = e.Rank
		}
		n := &SpanNode{
			Name: e.Name, Phase: e.Phase.String(), Rank: e.Rank,
			StartSec: e.Start, DurSec: e.Dur,
		}
		// Pop spans that ended at or before this start: they cannot
		// contain it. A zero-length span at an exact boundary belongs to
		// the enclosing span, not the one that just closed.
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if e.Start < top.StartSec+top.DurSec {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			roots = append(roots, n)
		} else {
			top := stack[len(stack)-1]
			top.Children = append(top.Children, n)
		}
		stack = append(stack, n)
	}
	return roots
}
