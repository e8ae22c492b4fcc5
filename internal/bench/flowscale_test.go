package bench

import (
	"strings"
	"testing"

	"bgpvr/internal/core"
	"bgpvr/internal/machine"
)

// TestFlowScaleSmall runs the contention-kernel scale sweep at a CI
// scale: the validation counts must cross-check exactly, the scale
// point must finish all flows, and the approximation's observed error
// must sit inside eps.
func TestFlowScaleSmall(t *testing.T) {
	mach := machine.NewBGP()
	scene := core.DefaultScene(64, 256)
	const eps = 0.25
	pts, table, err := FlowScaleRun(mach, scene, FlowScaleConfig{Procs: 1024, Eps: eps, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("want validation points 256, 512 plus the 1024 scale point, got %d points", len(pts))
	}
	for _, pt := range pts {
		if pt.Msgs == 0 || pt.ApproxSec <= 0 || pt.BW <= 0 {
			t.Errorf("degenerate point at %d cores: %+v", pt.Procs, pt)
		}
		if !pt.ErrExact {
			t.Errorf("%d cores is below flowScaleExactMax but was not exact-checked", pt.Procs)
		}
		if pt.ObservedErr > eps {
			t.Errorf("observed error %.4f exceeds eps %g at %d cores", pt.ObservedErr, eps, pt.Procs)
		}
	}
	last := pts[len(pts)-1]
	if last.Procs != 1024 {
		t.Fatalf("scale point is %d cores, want 1024", last.Procs)
	}
	st := last.Stat(eps, 2)
	if st.ApproxEps != eps || st.Workers != 2 || st.Events != last.Events {
		t.Errorf("Stat round-trip mismatch: %+v vs point %+v", st, last)
	}
	if st.RegionSide != 1 || st.LowerBoundSec != last.ApproxSec || st.ExactSec != last.ApproxSec {
		t.Errorf("Stat of a point below the approximation's floor is not the exact kernel's: %+v", st)
	}
	for _, col := range []string{"cores", "agg BW", "err kind", "1024"} {
		if !strings.Contains(table, col) {
			t.Errorf("table missing %q:\n%s", col, table)
		}
	}
}

// TestFlowScaleConfig shortens the validation list and the exact-check
// ceiling. The scale point sits past the ceiling, so its error is the
// self-measured bound gap; the decomposition at 2048 cores (512 nodes,
// side 4) clears the approximation's floor, so the point and its
// perf-report stat must record the aggregated model.
func TestFlowScaleConfig(t *testing.T) {
	defer func(v []int, m int) { flowScaleValidation, flowScaleExactMax = v, m }(flowScaleValidation, flowScaleExactMax)
	flowScaleValidation, flowScaleExactMax = []int{256}, 512
	mach := machine.NewBGP()
	scene := core.DefaultScene(64, 256)
	cfg := FlowScaleConfig{Procs: 2048, Eps: 0.08, Workers: 2}
	pts, table, err := FlowScaleRun(mach, scene, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("want the 256 validation point plus the 2048 scale point, got %d points", len(pts))
	}
	if !pts[0].ErrExact || pts[0].ErrKind() != "exact" {
		t.Errorf("validation point below the floor did not run the exact kernel: %+v", pts[0])
	}
	last := pts[1]
	if last.ErrExact {
		t.Errorf("scale point above the exact-check ceiling was exact-checked: %+v", last)
	}
	if last.Info == nil || last.Info.Side != 4 {
		t.Fatalf("the approximation did not engage at the scale point: %+v", last.Info)
	}
	if last.ObservedErr > cfg.Eps {
		t.Errorf("bound gap %.4f exceeds eps %g", last.ObservedErr, cfg.Eps)
	}
	st := last.Stat(cfg.Eps, cfg.Workers)
	if st.RegionSide != 4 || st.UsedLinks <= 0 || st.WallSec <= 0 {
		t.Errorf("Stat missing approximation fields: %+v", st)
	}
	if st.UsedLinks > st.ModelLinks {
		t.Errorf("UsedLinks %d exceeds model link space %d", st.UsedLinks, st.ModelLinks)
	}
	if !strings.Contains(table, "bound gap") {
		t.Errorf("table missing bound-gap err kind:\n%s", table)
	}
}

// TestFlowScaleExact pins the eps=0 path: the sweep runs the exact
// kernel only and reports zero error.
func TestFlowScaleExact(t *testing.T) {
	pt, err := FlowScaleAt(machine.NewBGP(), core.DefaultScene(64, 256), FlowScaleConfig{Procs: 512, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Info != nil {
		t.Errorf("exact run carries approximation info: %+v", pt.Info)
	}
	if pt.ObservedErr != 0 || pt.ExactSec != pt.ApproxSec {
		t.Errorf("exact run reports error: %+v", pt)
	}
}
