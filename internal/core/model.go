package core

import (
	"context"
	"fmt"
	"sort"

	"bgpvr/internal/compose"
	"bgpvr/internal/critpath"
	"bgpvr/internal/grid"
	"bgpvr/internal/img"
	"bgpvr/internal/iotrace"
	"bgpvr/internal/machine"
	"bgpvr/internal/mpiio"
	"bgpvr/internal/obs"
	"bgpvr/internal/pfs"
	"bgpvr/internal/render"
	"bgpvr/internal/stats"
	"bgpvr/internal/telemetry"
	"bgpvr/internal/torus"
	"bgpvr/internal/trace"
	"bgpvr/internal/tree"
)

// ModelConfig configures a model-mode (virtual-time) frame at paper
// scale.
type ModelConfig struct {
	// Ctx, when non-nil, bounds the modeled frame: cancellation is
	// checked between the analytic stages (a huge modeled partition can
	// take real time), and a WithRequestID identifier is noted in the
	// flight ring. nil means context.Background().
	Ctx   context.Context
	Scene Scene
	Procs int
	// Compositors is direct-send's m; 0 applies the paper's improved
	// rule (machine.ImprovedCompositors); set equal to Procs for the
	// original scheme.
	Compositors int
	Format      Format
	// Hints are the MPI-IO hints; CBNodes 0 means
	// Machine.Aggregators(Procs) and CBBufferSize 0 the window the read
	// planner chooses (mpiio.ChooseWindow).
	Hints   mpiio.Hints
	Machine machine.Machine
	// NoContention disables the shared-link term of the network model
	// (ablation 5 of DESIGN.md).
	NoContention bool
	// BinarySwap uses the binary-swap schedule instead of direct-send.
	BinarySwap bool
	// Trace, when non-nil, receives the modeled frame as a virtual
	// timeline on rank 0's track: per-component I/O spans (the pfs
	// service decomposition), the render stage, the composite stage,
	// and counters for the planned traffic. Create with
	// trace.NewVirtual(1).
	Trace *trace.Tracer
	// Net, when non-nil, receives the modeled frame's network and I/O
	// telemetry: the compositing schedule's message-size histogram,
	// the planned physical accesses' size histogram, the tree-network
	// barrier ops, and — in Net.Links, allocated here to match the
	// partition's torus — the compositing phase's per-link contention
	// map.
	Net *telemetry.NetTelemetry
	// CritPath, when non-nil, receives the modeled frame as a causal
	// event graph over all Procs ranks: per-rank stage nodes (render
	// costs from the same analytic per-block estimate, compositing
	// busy from the message schedule scaled to the phase time) plus
	// the barrier and fragment dependency edges between them.
	// Population is purely observational — the modeled times are
	// bit-identical with or without it — and the graph's end time
	// equals Times.Total exactly. Create with
	// critpath.NewGraph(Procs).
	CritPath *critpath.Graph
}

// ModelResult reports the virtual timings and the quantities behind
// them.
type ModelResult struct {
	Times StageTimes
	// IO is the physical access analysis of the planned collective read.
	IO iotrace.Stats
	// ReadBW is useful bytes / I/O time — the paper's "Read B/W".
	ReadBW float64
	// Composite is the network model's view of the compositing phase.
	Composite torus.PhaseStats
	// Messages and MeanMessageBytes describe the compositing schedule
	// (the Fig 4 axes).
	Messages         int
	MeanMessageBytes float64
	// SampleBalance is max/mean estimated samples per rank.
	SampleBalance float64
}

// RunModel computes the virtual frame time of one configuration.
func RunModel(cfg ModelConfig) (*ModelResult, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("core: Procs must be >= 1")
	}
	mach := cfg.Machine
	if mach.CoresPerNode == 0 {
		mach = machine.NewBGP()
	}
	m := cfg.Compositors
	if m <= 0 {
		m = machine.ImprovedCompositors(cfg.Procs)
	}
	if m > cfg.Procs {
		return nil, fmt.Errorf("core: Compositors %d > Procs %d", m, cfg.Procs)
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if id := RequestIDFrom(ctx); id != "" {
		obs.Note("frame start: request %s (model, procs=%d)", id, cfg.Procs)
	}
	s := cfg.Scene
	d := grid.NewDecomp(s.Dims, cfg.Procs)
	res := &ModelResult{}

	// Stage 1: I/O. The collective read's union request is the whole
	// variable (every block needs its extent; together they cover the
	// grid), so the plan depends only on the file layout and hints.
	var ioParts pfs.Parts
	if cfg.Format != FormatGenerate {
		lay, err := formatLayout(cfg.Format, s)
		if err != nil {
			return nil, err
		}
		union, err := lay.runsFor(nil, grid.WholeGrid(s.Dims))
		if err != nil {
			return nil, err
		}
		hints := frameHints(cfg.Hints, mach.Aggregators(cfg.Procs), union)
		plan := mpiio.BuildPlan(union, hints)
		res.IO = plan.Stats()
		if cfg.Net != nil {
			for _, acc := range plan.Accesses {
				cfg.Net.ObserveAccess(acc.Length)
			}
		}
		job := pfs.ReadJob{
			PhysicalBytes:       res.IO.PhysicalBytes,
			Accesses:            res.IO.Accesses,
			Aggregators:         hints.CBNodes,
			IONs:                mach.IONs(cfg.Procs),
			Procs:               cfg.Procs,
			MetaAccessesPerProc: lay.metaAccesses,
		}
		ioParts = mach.Storage.ReadTimeParts(job)
		res.Times.IO = ioParts.Total()
		res.ReadBW = float64(res.IO.UsefulBytes) / res.Times.IO
	}

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: modeled frame canceled before render: %w", err)
	}

	// Stage 2: rendering. Per-block sample counts come from the
	// geometric estimate (block volume over pixel-ray density for the
	// orthographic experiment camera), and the stage time is the
	// slowest rank. The ghost layers read above make samples exact at
	// boundaries, so the owned extent is the right cost basis.
	cam := s.Camera()
	rcfg := s.RenderConfig()
	var sampleSum stats.Summary
	maxSamples, totalSamples := int64(0), int64(0)
	for _, g := range distinctBlockExtents(d) {
		n := analyticSamples(g.ext, s, rcfg.Step)
		for i := 0; i < g.count; i++ {
			sampleSum.Add(float64(n))
		}
		totalSamples += n * int64(g.count)
		if n > maxSamples {
			maxSamples = n
		}
	}
	res.SampleBalance = sampleSum.Imbalance()
	res.Times.Render = float64(maxSamples) * mach.SecondsPerSample

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: modeled frame canceled before composite: %w", err)
	}

	// Stage 3: compositing. Every block's projected rectangle yields
	// the exact direct-send message schedule, timed on the torus model.
	rects := make([]img.Rect, cfg.Procs)
	for r := range rects {
		rects[r] = render.ProjectedRect(cam, d.BlockExtent(r))
	}
	var msgs []compose.RankMessage
	if cfg.BinarySwap {
		var err error
		msgs, err = compose.BinarySwapSchedule(cfg.Procs, s.ImageW, s.ImageH, compose.PixelBytes)
		if err != nil {
			return nil, err
		}
	} else {
		msgs = compose.DirectSendSchedule(rects, s.ImageW, s.ImageH, m, compose.PixelBytes)
	}
	res.Messages = len(msgs)
	var msgBytes int64
	for _, mm := range msgs {
		msgBytes += mm.Bytes
	}
	if len(msgs) > 0 {
		res.MeanMessageBytes = float64(msgBytes) / float64(len(msgs))
	}
	var linkRec torus.LinkRecorder
	if cfg.Net != nil {
		top := mach.TorusFor(cfg.Procs)
		cfg.Net.Links = telemetry.NewLinkUsage(top.NumLinks(), mach.Torus.LinkBandwidth)
		linkRec = cfg.Net.Links
		for _, mm := range msgs {
			cfg.Net.ObserveSend(mm.Bytes)
		}
	}
	res.Composite = mach.PhaseOnTorusRecorded(cfg.Procs, msgs, !cfg.NoContention, machine.PlacementBlock, linkRec)
	// Local blending of received fragments, pipelined with arrival:
	// charge the busiest compositor's pixels at a calibrated blend rate.
	const blendSecondsPerPixel = 25e-9
	blend := float64(res.Composite.MaxNodeEject) / compose.PixelBytes * blendSecondsPerPixel
	res.Times.Composite = res.Composite.Time + blend

	barriers := 2 * tree.BarrierTime(mach.Tree, mach.Nodes(cfg.Procs))
	res.Times.Total = res.Times.IO + res.Times.Render + res.Times.Composite + barriers
	if cfg.Net != nil {
		cfg.Net.Links.SetDuration(res.Times.Composite)
		cfg.Net.ObserveTree(tree.OpBarrier, 0)
		cfg.Net.ObserveTree(tree.OpBarrier, 0)
	}

	// Lay the modeled frame out as a virtual timeline: the pfs service
	// decomposition inside the io stage, then render, composite and the
	// stage barriers, with the planned traffic as counters.
	if tr := cfg.Trace.Rank(0); tr != nil {
		t := 0.0
		if res.Times.IO > 0 {
			tr.Emit(trace.PhaseIO, "io", t, res.Times.IO)
			for _, part := range []struct {
				name string
				dur  float64
			}{
				{"pfs-open", ioParts.Open},
				{"pfs-request", ioParts.Request},
				{"pfs-stream", ioParts.Stream},
				{"pfs-access", ioParts.Access},
				{"pfs-meta", ioParts.Meta},
			} {
				if part.dur > 0 {
					tr.EmitNested(trace.PhaseIO, part.name, t, part.dur)
					t += part.dur
				}
			}
			t = res.Times.IO
		}
		tr.Emit(trace.PhaseRender, "render", t, res.Times.Render)
		t += res.Times.Render
		tr.Emit(trace.PhaseComposite, "composite", t, res.Times.Composite)
		t += res.Times.Composite
		tr.Emit(trace.PhaseComm, "stage-barriers", t, barriers)
		tr.Add(trace.CounterMessages, int64(res.Messages))
		tr.Add(trace.CounterBytesSent, msgBytes)
		tr.Add(trace.CounterAccesses, int64(res.IO.Accesses))
		tr.Add(trace.CounterBytesRead, res.IO.PhysicalBytes)
		tr.Add(trace.CounterSamples, totalSamples)
	}

	// Lay the modeled frame out as a causal event graph over all ranks.
	// Stage boundaries repeat Times.Total's additions in the same
	// left-to-right order, so the graph's end time is bit-identical to
	// the modeled end-to-end time.
	if g := cfg.CritPath; g != nil {
		tIO := res.Times.IO
		tRender := tIO + res.Times.Render
		tComposite := tRender + res.Times.Composite
		tEnd := tComposite + barriers

		// I/O: the collective read is modeled as one flat stage.
		if res.Times.IO > 0 {
			for r := 0; r < cfg.Procs; r++ {
				g.AddNodeEnd(r, trace.PhaseIO, "io", 0, tIO)
			}
		}
		// Render: per-rank cost from the same analytic estimate the
		// stage time takes its max over.
		renderEnd := make([]float64, cfg.Procs)
		slowestRender := 0
		for r := 0; r < cfg.Procs; r++ {
			dur := float64(analyticSamples(d.BlockExtent(r), s, rcfg.Step)) * mach.SecondsPerSample
			renderEnd[r] = tIO + dur
			g.AddNode(r, trace.PhaseRender, "render", tIO, dur)
			if renderEnd[r] > renderEnd[slowestRender] {
				slowestRender = r
			}
		}
		// Compositing: per-rank busy from the schedule's injected and
		// ejected bytes, scaled so the busiest rank fills the phase.
		inject := make([]float64, cfg.Procs)
		eject := make([]float64, cfg.Procs)
		for _, mm := range msgs {
			inject[mm.Src] += float64(mm.Bytes)
			eject[mm.Dst] += float64(mm.Bytes)
		}
		busy := make([]float64, cfg.Procs)
		var busyMax float64
		slowestComp := 0
		for r := 0; r < cfg.Procs; r++ {
			busy[r] = inject[r]
			if eject[r] > busy[r] {
				busy[r] = eject[r]
			}
			if busy[r] > busyMax {
				busyMax, slowestComp = busy[r], r
			}
		}
		if res.Times.Composite > 0 {
			for r := 0; r < cfg.Procs; r++ {
				dur := res.Times.Composite
				if busyMax > 0 {
					dur = busy[r] / busyMax * res.Times.Composite
				}
				g.AddNode(r, trace.PhaseComposite, "composite", tRender, dur)
			}
		}
		// Stage barriers close the frame on every rank.
		if barriers > 0 {
			for r := 0; r < cfg.Procs; r++ {
				g.AddNodeEnd(r, trace.PhaseComm, "stage-barriers", tComposite, tEnd)
			}
		}
		// Dependency edges: the slowest renderer releases the
		// compositing stage, each schedule message carries a fragment
		// edge stamped with its sender's render completion, and the
		// busiest compositor releases the closing barrier.
		for r := 0; r < cfg.Procs; r++ {
			if r != slowestRender && res.Times.Render > 0 {
				g.AddDep(critpath.Dep{Kind: critpath.DepBarrier, Src: slowestRender, Dst: r, SrcT: tRender, DstT: tRender})
			}
		}
		for _, mm := range msgs {
			g.AddDep(critpath.Dep{Kind: critpath.DepFragment, Src: mm.Src, Dst: mm.Dst,
				SrcT: renderEnd[mm.Src], DstT: tRender, Bytes: mm.Bytes})
		}
		for r := 0; r < cfg.Procs; r++ {
			if r != slowestComp && res.Times.Composite > 0 {
				g.AddDep(critpath.Dep{Kind: critpath.DepBarrier, Src: slowestComp, Dst: r, SrcT: tComposite, DstT: tComposite})
			}
		}
	}
	return res, nil
}

// distinctBlockExtents groups the decomposition's blocks by size,
// returning one representative extent per distinct shape with its
// multiplicity. A regular decomposition has at most eight distinct
// shapes ((q | q+1) per axis), so the render estimate at 32K blocks
// costs eight evaluations rather than 32K.
func distinctBlockExtents(d grid.Decomp) []extentGroup {
	type key struct{ x, y, z int }
	groups := map[key]*extentGroup{}
	var order []key
	for r := 0; r < d.NumBlocks(); r++ {
		e := d.BlockExtent(r)
		s := e.Size()
		k := key{s.X, s.Y, s.Z}
		if g, ok := groups[k]; ok {
			g.count++
			continue
		}
		groups[k] = &extentGroup{ext: e, count: 1}
		order = append(order, k)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.x != b.x {
			return a.x < b.x
		}
		if a.y != b.y {
			return a.y < b.y
		}
		return a.z < b.z
	})
	out := make([]extentGroup, 0, len(order))
	for _, k := range order {
		out = append(out, *groups[k])
	}
	return out
}

type extentGroup struct {
	ext   grid.Extent
	count int
}

// analyticSamples estimates one block's sample count: the world volume
// of its owned region (clipped to the sampleable box) divided by the
// sample density — one ray per pixel footprint, one sample per Step
// along it. Valid for the orthographic experiment camera.
func analyticSamples(ext grid.Extent, s Scene, step float64) int64 {
	side := float64(max(s.Dims.X, max(s.Dims.Y, s.Dims.Z))) * 1.9
	pxArea := (side / float64(s.ImageW)) * (side / float64(s.ImageH))
	// Clip to the sampleable region [0, dims-1].
	vol := 1.0
	for a := 0; a < 3; a++ {
		lo := float64(ext.Lo.Comp(a))
		hi := float64(ext.Hi.Comp(a))
		if limit := float64(s.Dims.Comp(a) - 1); hi > limit {
			hi = limit
		}
		if hi <= lo {
			return 0
		}
		vol *= hi - lo
	}
	return int64(vol / (step * pxArea))
}
