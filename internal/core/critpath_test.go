package core

import (
	"path/filepath"
	"testing"

	"bgpvr/internal/critpath"
	"bgpvr/internal/trace"
)

// TestModelCritPath2K validates the modeled causal graph of a 2K-core
// frame: attaching a graph must not perturb the modeled times at all,
// the critical path must span the frame exactly (its duration is
// bit-identical to the modeled end-to-end time), render must dominate
// the path for the compute-bound generate-format scene, and the
// what-if estimate for a balanced render must not exceed the actual
// frame time.
func TestModelCritPath2K(t *testing.T) {
	const procs = 2048
	base := ModelConfig{
		Scene:  DefaultScene(256, 1024),
		Procs:  procs,
		Format: FormatGenerate, // io-free: the frame is render + composite
	}
	off, err := RunModel(base)
	if err != nil {
		t.Fatal(err)
	}

	withGraph := base
	withGraph.CritPath = critpath.NewGraph(procs)
	on, err := RunModel(withGraph)
	if err != nil {
		t.Fatal(err)
	}
	if off.Times != on.Times {
		t.Fatalf("recording changed modeled times:\noff %+v\non  %+v", off.Times, on.Times)
	}

	g := withGraph.CritPath
	if g.End() != on.Times.Total {
		t.Fatalf("graph end %v != modeled total %v (must be bit-identical)", g.End(), on.Times.Total)
	}
	p := g.CriticalPath()
	if p.Total() != on.Times.Total {
		t.Fatalf("path duration %v != modeled total %v (must be bit-identical)", p.Total(), on.Times.Total)
	}
	if p.Start != 0 {
		t.Errorf("path start = %v, want 0", p.Start)
	}

	a := critpath.Analyze(g, 5)
	if a.Dominant != "render" {
		t.Errorf("dominant phase = %q, want render (path: %v)", a.Dominant, a.PathPhaseSec)
	}
	if a.PathPhaseSec["render"] != on.Times.Render {
		t.Errorf("render on path = %v, want the full stage %v", a.PathPhaseSec["render"], on.Times.Render)
	}

	w := a.WhatIfFor("render")
	if w == nil {
		t.Fatal("no what-if entry for render")
	}
	if w.EstimatedSec > on.Times.Total {
		t.Errorf("balanced-render estimate %v exceeds actual frame %v", w.EstimatedSec, on.Times.Total)
	}
	if w.SavedSec < 0 {
		t.Errorf("negative saving %v", w.SavedSec)
	}
	// The render phase of a regular decomposition is imbalanced
	// (boundary blocks sample less), so the analysis must see it.
	r := a.PhaseInfo("render")
	if r == nil {
		t.Fatal("no render imbalance entry")
	}
	if r.Imbalance < 1 {
		t.Errorf("render imbalance = %v < 1", r.Imbalance)
	}
	if len(r.Stragglers) != 5 {
		t.Errorf("stragglers = %d, want 5", len(r.Stragglers))
	}
	if r.MaxSec != on.Times.Render {
		t.Errorf("render max busy %v != stage time %v", r.MaxSec, on.Times.Render)
	}
}

// TestModelCritPathWithIO covers the io-bearing layout: the graph end
// must still match the modeled total bit-exactly and the path must
// attribute all three stages.
func TestModelCritPathWithIO(t *testing.T) {
	g := critpath.NewGraph(1024)
	cfg := ModelConfig{
		Scene:    DefaultScene(256, 512),
		Procs:    1024,
		Format:   FormatRaw,
		CritPath: g,
	}
	res, err := RunModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.End() != res.Times.Total {
		t.Fatalf("graph end %v != total %v", g.End(), res.Times.Total)
	}
	p := g.CriticalPath()
	if p.Total() != res.Times.Total {
		t.Fatalf("path %v != total %v", p.Total(), res.Times.Total)
	}
	if p.PhaseSec[trace.PhaseIO] != res.Times.IO {
		t.Errorf("io on path = %v, want %v", p.PhaseSec[trace.PhaseIO], res.Times.IO)
	}
	if p.IdleSec > 1e-12 {
		t.Errorf("modeled path has idle time %v", p.IdleSec)
	}
}

// TestRealCritPathEndToEnd runs small real frames with recording on
// and checks the assembled graph: the edges are the data's own — a real
// frame runs no barrier, so there are no barrier edges, the compositing
// fragments are edges, and a frame read from a file adds the
// aggregators' — and the critical path lands on the frame's actual end.
func TestRealCritPathEndToEnd(t *testing.T) {
	const procs = 8
	s := DefaultScene(32, 64)
	path := filepath.Join(t.TempDir(), "step.raw")
	if err := WriteSceneFile(path, FormatRaw, s); err != nil {
		t.Fatal(err)
	}
	for _, f := range []Format{FormatGenerate, FormatRaw} {
		tr := trace.New(procs)
		rec := critpath.NewRecorder(tr, 4096)
		res, err := RunReal(RealConfig{
			Scene:    s,
			Procs:    procs,
			Format:   f,
			Path:     path,
			Trace:    tr,
			CritPath: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Len() == 0 {
			t.Fatalf("format %v: no dependency edges recorded", f)
		}
		a := critpath.Analyze(critpath.FromTrace(tr, rec), 3)
		if a.DepsByKind["barrier"] != 0 {
			t.Errorf("format %v: barrier edges in a real frame: %v", f, a.DepsByKind)
		}
		if a.DepsByKind["fragment"] == 0 {
			t.Errorf("format %v: no fragment edges: %v", f, a.DepsByKind)
		}
		if got := a.DepsByKind["aggregator"]; (got != 0) != (f != FormatGenerate) {
			t.Errorf("format %v: %d aggregator edges: %v", f, got, a.DepsByKind)
		}
		if a.PathSec <= 0 || a.PathSec > res.Times.Total*10 {
			t.Errorf("format %v: path duration %v implausible for frame %v", f, a.PathSec, res.Times.Total)
		}
		if len(a.Phases) == 0 {
			t.Errorf("format %v: no phase imbalance entries", f)
		}
		if txt := a.Text(); len(txt) == 0 {
			t.Errorf("format %v: empty text report", f)
		}
	}
}
