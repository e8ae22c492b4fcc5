package core

import (
	"bgpvr/internal/compose"
	"bgpvr/internal/grid"
	"bgpvr/internal/img"
	"bgpvr/internal/machine"
	"bgpvr/internal/render"
	"bgpvr/internal/torus"
)

// CompositePhaseMessages builds the node-level message set of the
// direct-send compositing exchange at the given scale: every
// renderer's projected rectangle is fragmented over the compositor
// count and each fragment becomes one flow between torus nodes under
// block placement. m <= 0 applies the paper's improved compositor
// rule; pixBytes <= 0 means the wire size of one composited pixel,
// compose.PixelBytes (callers modeling wider fragments pass their
// own).
// This is the wire-level workload the max-min flow cross-checks
// stream — the same exchange the analytic model times with
// machine.PhaseOnTorusRecorded.
func CompositePhaseMessages(mach machine.Machine, scene Scene, procs, m int, pixBytes int64) (torus.Topology, torus.Params, []torus.Message) {
	d := grid.NewDecomp(scene.Dims, procs)
	cam := scene.Camera()
	rects := make([]img.Rect, procs)
	for r := range rects {
		rects[r] = render.ProjectedRect(cam, d.BlockExtent(r))
	}
	if m <= 0 {
		m = machine.ImprovedCompositors(procs)
	}
	if pixBytes <= 0 {
		pixBytes = compose.PixelBytes
	}
	msgs := compose.DirectSendSchedule(rects, scene.ImageW, scene.ImageH, m, pixBytes)
	top := mach.TorusFor(procs)
	nodeOf := mach.RankToNode(procs, machine.PlacementBlock)
	nm := make([]torus.Message, len(msgs))
	for i, mm := range msgs {
		nm[i] = torus.Message{Src: nodeOf[mm.Src], Dst: nodeOf[mm.Dst], Bytes: mm.Bytes}
	}
	return top, mach.Torus, nm
}
