package critpath

import (
	"math"
	"strings"
	"testing"

	"bgpvr/internal/trace"
)

// twoRankFrame builds the canonical diamond: both ranks do 1s of I/O,
// rank 1 renders 3s while rank 0 renders 1s, a barrier releases both
// into a 1s composite. The path must run through rank 1's render.
func twoRankFrame() *Graph {
	g := NewGraph(2)
	g.AddNode(0, trace.PhaseIO, "io", 0, 1)
	g.AddNode(0, trace.PhaseRender, "render", 1, 1)
	g.AddNode(0, trace.PhaseComposite, "composite", 4, 1)
	g.AddNode(1, trace.PhaseIO, "io", 0, 1)
	g.AddNode(1, trace.PhaseRender, "render", 1, 3)
	g.AddNode(1, trace.PhaseComposite, "composite", 4, 1)
	// Barrier after render: slowest rank (1) releases rank 0 at t=4.
	g.AddDep(Dep{Kind: DepBarrier, Src: 1, Dst: 0, SrcT: 4, DstT: 4})
	g.AddDep(Dep{Kind: DepBarrier, Src: 1, Dst: 1, SrcT: 4, DstT: 4}) // self, ignored
	return g
}

func TestCriticalPathDiamond(t *testing.T) {
	g := twoRankFrame()
	p := g.CriticalPath()
	if p.End != 5 || p.Start != 0 || p.Total() != 5 {
		t.Fatalf("path bounds = [%v, %v]", p.Start, p.End)
	}
	if p.PhaseSec[trace.PhaseRender] != 3 {
		t.Errorf("render on path = %v, want 3 (must go through rank 1)", p.PhaseSec[trace.PhaseRender])
	}
	if p.PhaseSec[trace.PhaseIO] != 1 || p.PhaseSec[trace.PhaseComposite] != 1 {
		t.Errorf("io/composite on path = %v/%v, want 1/1",
			p.PhaseSec[trace.PhaseIO], p.PhaseSec[trace.PhaseComposite])
	}
	if p.DominantPhase() != trace.PhaseRender {
		t.Errorf("dominant = %v, want render", p.DominantPhase())
	}
	if p.IdleSec != 0 {
		t.Errorf("idle = %v, want 0", p.IdleSec)
	}
	if p.Hops != 1 {
		t.Errorf("hops = %d, want 1", p.Hops)
	}
	// Path covers the whole frame: sum of phase attribution == total.
	var sum float64
	for _, s := range p.PhaseSec {
		sum += s
	}
	if math.Abs(sum-p.Total()) > 1e-12 {
		t.Errorf("attribution sum %v != path total %v", sum, p.Total())
	}
	// Segments ascend and are contiguous.
	for i := 1; i < len(p.Segments); i++ {
		if p.Segments[i].Start < p.Segments[i-1].End-1e-12 {
			t.Errorf("segments overlap: %+v", p.Segments)
		}
	}
}

// TestNonBlockingEdgeIgnored pins the blocking rule: a message that
// arrived while the receiver was still busy (sender time before the
// receiver's innermost wait started) must not divert the path.
func TestNonBlockingEdgeIgnored(t *testing.T) {
	g := NewGraph(2)
	g.AddNode(0, trace.PhaseRender, "work", 0, 5)
	g.addSpan(0, trace.PhaseComm, "recv", 3.9, 4, false) // recv wait nested in time inside work
	g.AddNode(1, trace.PhaseRender, "work", 0, 1)
	g.AddDep(Dep{Kind: DepMessage, Src: 1, Dst: 0, SrcT: 1, DstT: 4})
	p := g.CriticalPath()
	for _, s := range p.Segments {
		if s.Rank == 1 {
			t.Fatalf("path visited rank 1 via a non-blocking edge: %+v", p.Segments)
		}
	}
	if p.Total() != 5 {
		t.Errorf("path total = %v, want 5", p.Total())
	}
}

// TestBlockingEdgeFollowed is the converse: the receiver went idle
// before the sender finished, so the edge carries the path.
func TestBlockingEdgeFollowed(t *testing.T) {
	g := NewGraph(2)
	g.AddNode(0, trace.PhaseRender, "work", 0, 1)
	g.AddNode(0, trace.PhaseComposite, "after", 4, 1)
	g.AddNode(1, trace.PhaseRender, "work", 0, 4)
	g.AddDep(Dep{Kind: DepMessage, Src: 1, Dst: 0, SrcT: 4, DstT: 4})
	p := g.CriticalPath()
	if p.PhaseSec[trace.PhaseRender] != 4 {
		t.Errorf("render attribution = %v, want 4 (rank 1's work)", p.PhaseSec[trace.PhaseRender])
	}
	if p.Hops != 1 {
		t.Errorf("hops = %d, want 1", p.Hops)
	}
}

// TestIdleAttribution: a gap with no spans and no deps shows up as
// idle time on the path.
func TestIdleAttribution(t *testing.T) {
	g := NewGraph(1)
	g.AddNode(0, trace.PhaseIO, "io", 0, 1)
	g.AddNode(0, trace.PhaseRender, "render", 3, 1)
	p := g.CriticalPath()
	if p.IdleSec != 2 {
		t.Errorf("idle = %v, want 2", p.IdleSec)
	}
	if p.Total() != 4 {
		t.Errorf("total = %v, want 4", p.Total())
	}
}

func TestAnalyzeDiamond(t *testing.T) {
	a := Analyze(twoRankFrame(), 3)
	if a.Ranks != 2 || a.TotalSec != 5 || a.PathSec != 5 {
		t.Fatalf("analysis = %+v", a)
	}
	if a.Dominant != "render" {
		t.Errorf("dominant = %q", a.Dominant)
	}
	r := a.PhaseInfo("render")
	if r == nil {
		t.Fatal("no render phase entry")
	}
	if r.MeanSec != 2 || r.MaxSec != 3 || r.MinSec != 1 {
		t.Errorf("render busy stats = %+v", r)
	}
	if math.Abs(r.Imbalance-1.5) > 1e-12 {
		t.Errorf("imbalance = %v, want 1.5", r.Imbalance)
	}
	if len(r.Stragglers) != 2 || r.Stragglers[0].Rank != 1 || r.Stragglers[0].BusySec != 3 {
		t.Errorf("stragglers = %+v", r.Stragglers)
	}
	w := a.WhatIfFor("render")
	if w == nil {
		t.Fatal("no render what-if")
	}
	// Balancing render saves max-mean = 1s: 5s -> 4s.
	if math.Abs(w.EstimatedSec-4) > 1e-12 || math.Abs(w.SavedSec-1) > 1e-12 {
		t.Errorf("what-if = %+v", w)
	}
	if w.EstimatedSec > a.TotalSec {
		t.Error("what-if estimate exceeds actual frame time")
	}
	if a.DepsByKind["barrier"] != 2 {
		t.Errorf("deps by kind = %v", a.DepsByKind)
	}
	txt := a.Text()
	for _, want := range []string{"critical path", "phase imbalance", "what-if", "render"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Text() missing %q:\n%s", want, txt)
		}
	}
}

func TestFromTrace(t *testing.T) {
	tr := trace.NewVirtual(2)
	tr.Rank(0).Emit(trace.PhaseIO, "io", 0, 1)
	tr.Rank(0).EmitNested(trace.PhaseIO, "io/read", 0, 0.5)
	tr.Rank(1).Emit(trace.PhaseIO, "io", 0, 2)
	rec := NewRecorder(tr, 4)
	rec.Record(DepMessage, 1, 0, 2, 2, 128)
	g := FromTrace(tr, rec)
	if g.NumNodes() != 3 || g.NumDeps() != 1 {
		t.Fatalf("nodes=%d deps=%d", g.NumNodes(), g.NumDeps())
	}
	// Nested span excluded from busy aggregation.
	busy := g.BusyByPhase()
	if busy[trace.PhaseIO][0] != 1 || busy[trace.PhaseIO][1] != 2 {
		t.Errorf("io busy = %v", busy[trace.PhaseIO])
	}
	if g.End() != 2 {
		t.Errorf("end = %v", g.End())
	}
}

func TestNilSafety(t *testing.T) {
	var g *Graph
	g.AddNode(0, trace.PhaseIO, "x", 0, 1)
	g.AddDep(Dep{})
	if g.Ranks() != 0 || g.End() != 0 || g.NumNodes() != 0 || g.NumDeps() != 0 {
		t.Error("nil graph accessors not neutral")
	}
	if p := g.CriticalPath(); p.Total() != 0 || len(p.Segments) != 0 {
		t.Error("nil graph path not empty")
	}
	if a := Analyze(g, 3); a == nil || a.Ranks != 0 {
		t.Error("Analyze(nil) should return an empty analysis")
	}
	var r *Recorder
	r.Record(DepMessage, 0, 1, 0, 1, 0)
	if r.Len() != 0 || r.Deps() != nil || r.Now() != 0 {
		t.Error("nil recorder not neutral")
	}
	var a *Analysis
	if a.Text() != "" || a.PhaseInfo("render") != nil || a.WhatIfFor("render") != nil {
		t.Error("nil analysis accessors not neutral")
	}
}

// TestRecorderAllocFree pins the hot-path contract: recording within
// the capacity hint allocates nothing, and the nil recorder's no-op
// allocates nothing.
func TestRecorderAllocFree(t *testing.T) {
	rec := NewRecorder(nil, 1024)
	if n := testing.AllocsPerRun(500, func() {
		rec.Record(DepMessage, 0, 1, 1, 2, 64)
	}); n != 0 {
		t.Errorf("Record allocated %v per op within capacity hint", n)
	}
	var nilRec *Recorder
	if n := testing.AllocsPerRun(100, func() {
		nilRec.Record(DepMessage, 0, 1, 1, 2, 64)
		_ = nilRec.Now()
	}); n != 0 {
		t.Errorf("nil recorder allocated %v per op", n)
	}
}

func TestDepKindString(t *testing.T) {
	want := map[DepKind]string{
		DepAuto: "auto", DepMessage: "message", DepBarrier: "barrier",
		DepCollective: "collective", DepAggregator: "aggregator",
		DepFragment: "fragment", DepFragment + 1: "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

// TestAggregatesOfPopulatedGraph checks the per-rank aggregates of a
// frame with varied loads, nested comm waits and two dep kinds against
// the values the frame was built from.
func TestAggregatesOfPopulatedGraph(t *testing.T) {
	const ranks = 13
	g := NewGraph(ranks)
	for r := 0; r < ranks; r++ {
		load := float64(1+(r*7)%5) * 0.25
		g.AddNode(r, trace.PhaseIO, "read", 0, 1+float64(r%3)*0.125)
		g.AddNodeEnd(r, trace.PhaseRender, "render", 2, 2+load)
		g.addSpan(int32(r), trace.PhaseComm, "recv", 2.5, 2.75, true) // nested: excluded from busy
		g.AddNode(r, trace.PhaseComposite, "blend", 8, 0.5+float64(r%2)*0.0625)
	}
	for r := 1; r < ranks; r++ {
		g.AddDep(Dep{Kind: DepBarrier, Src: 0, Dst: r, SrcT: 7, DstT: 7.5})
		g.AddDep(Dep{Kind: DepFragment, Src: r - 1, Dst: r, SrcT: 8, DstT: 8.25, Bytes: 4096})
	}
	if g.NumNodes() != 4*ranks || g.NumDeps() != 2*(ranks-1) {
		t.Fatalf("counts = %d nodes, %d deps", g.NumNodes(), g.NumDeps())
	}
	if g.End() != 8.5625 {
		t.Fatalf("End = %v, want 8.5625", g.End())
	}
	busy := g.BusyByPhase()
	for r := 0; r < ranks; r++ {
		want := map[trace.Phase]float64{
			trace.PhaseIO:        1 + float64(r%3)*0.125,
			trace.PhaseRender:    float64(1+(r*7)%5) * 0.25,
			trace.PhaseComm:      0,
			trace.PhaseComposite: 0.5 + float64(r%2)*0.0625,
		}
		for ph, w := range want {
			if busy[ph][r] != w {
				t.Errorf("busy[%s][%d] = %v, want %v", ph, r, busy[ph][r], w)
			}
		}
	}
	a := Analyze(g, 4)
	if a.Ranks != ranks || a.Deps != 2*(ranks-1) || a.TotalSec != g.End() {
		t.Errorf("headline = %+v", a)
	}
	if a.DepsByKind["barrier"] != ranks-1 || a.DepsByKind["fragment"] != ranks-1 || len(a.DepsByKind) != 2 {
		t.Errorf("deps_by_kind = %v", a.DepsByKind)
	}
	render := a.PhaseInfo("render")
	if render == nil || render.MaxSec != 1.25 || render.MinSec != 0.25 || len(render.Stragglers) != 4 {
		t.Fatalf("render section = %+v", render)
	}
	for i, s := range render.Stragglers {
		if want := []float64{1.25, 1.25, 1.25, 1}[i]; s.BusySec != want {
			t.Errorf("render straggler %d = %+v, want busy %v", i, s, want)
		}
	}
}

// TestNameInterning checks repeated span names share one table entry.
func TestNameInterning(t *testing.T) {
	g := NewGraph(4)
	for r := 0; r < 4; r++ {
		for i := 0; i < 50; i++ {
			g.AddNode(r, trace.PhaseRender, "render", float64(i), 0.5)
		}
	}
	if len(g.names) != 1 {
		t.Errorf("interned %d names, want 1", len(g.names))
	}
	if name := g.names[g.nName[199]]; name != "render" {
		t.Errorf("interned name lost: %q", name)
	}
}
