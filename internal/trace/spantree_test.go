package trace

import (
	"encoding/json"
	"testing"
)

// TestSpanTreeNesting pins containment nesting: on one rank, io and
// render are siblings, the comm span inside render becomes its child,
// and a second rank's spans land in their own root set.
func TestSpanTreeNesting(t *testing.T) {
	tr := NewVirtual(2)
	r0 := tr.Rank(0)
	r0.Emit(PhaseIO, "io", 0, 1)
	r0.Emit(PhaseRender, "render", 1, 2)
	r0.EmitNested(PhaseComm, "comm", 1.5, 0.25)
	r0.Emit(PhaseComposite, "composite", 3, 1)
	tr.Rank(1).Emit(PhaseRender, "render", 0.5, 2)

	roots := tr.SpanTree()
	if len(roots) != 4 {
		t.Fatalf("roots = %d, want 4 (io, render, composite on rank 0; render on rank 1)", len(roots))
	}
	var count func([]*SpanNode) int
	count = func(nodes []*SpanNode) int {
		n := len(nodes)
		for _, nd := range nodes {
			n += count(nd.Children)
		}
		return n
	}
	if got := count(roots); got != 5 {
		t.Errorf("span count = %d, want 5", got)
	}
	var render *SpanNode
	for _, r := range roots {
		if r.Rank == 0 && r.Name == "render" {
			render = r
		}
	}
	if render == nil {
		t.Fatal("rank-0 render span missing from roots")
	}
	if len(render.Children) != 1 || render.Children[0].Name != "comm" {
		t.Fatalf("render children = %+v, want the nested comm span", render.Children)
	}
	if render.Children[0].Phase != "comm" {
		t.Errorf("comm child phase = %q", render.Children[0].Phase)
	}

	// rank 1's span must not nest under rank 0's io even though the
	// interval would contain it.
	for _, r := range roots {
		if r.Rank == 1 && r.Name != "render" {
			t.Errorf("unexpected rank-1 root %q", r.Name)
		}
	}
}

// TestSpanTreeEqualStarts pins the parent-first ordering: a child
// sharing its parent's start time still nests (the longer span wins
// the root slot).
func TestSpanTreeEqualStarts(t *testing.T) {
	tr := NewVirtual(1)
	r := tr.Rank(0)
	r.EmitNested(PhaseRender, "inner", 0, 1) // recorded before the parent, as End order would
	r.Emit(PhaseRender, "outer", 0, 4)
	roots := tr.SpanTree()
	if len(roots) != 1 || roots[0].Name != "outer" {
		t.Fatalf("roots = %+v, want single outer root", roots)
	}
	if len(roots[0].Children) != 1 || roots[0].Children[0].Name != "inner" {
		t.Fatalf("outer children = %+v, want inner", roots[0].Children)
	}
}

// TestSpanTreeZeroAtBoundary pins the boundary rule: a span starting
// exactly where the previous one ended is a sibling, not a child.
func TestSpanTreeZeroAtBoundary(t *testing.T) {
	tr := NewVirtual(1)
	r := tr.Rank(0)
	r.Emit(PhaseIO, "io", 0, 1)
	r.Emit(PhaseRender, "render", 1, 1)
	roots := tr.SpanTree()
	if len(roots) != 2 {
		t.Fatalf("roots = %d, want 2 siblings", len(roots))
	}
}

// TestSpanTreeNil pins nil safety and JSON shape.
func TestSpanTreeNil(t *testing.T) {
	var tr *Tracer
	if got := tr.SpanTree(); got != nil {
		t.Errorf("nil tracer SpanTree = %v", got)
	}
	live := NewVirtual(1)
	live.Rank(0).Emit(PhaseIO, "io", 0, 1)
	b, err := json.Marshal(live.SpanTree())
	if err != nil {
		t.Fatal(err)
	}
	want := `[{"name":"io","phase":"io","rank":0,"start_sec":0,"dur_sec":1}]`
	if string(b) != want {
		t.Errorf("JSON = %s, want %s", b, want)
	}
}
