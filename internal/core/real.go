package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"bgpvr/internal/comm"
	"bgpvr/internal/compose"
	"bgpvr/internal/critpath"
	"bgpvr/internal/grid"
	"bgpvr/internal/halo"
	"bgpvr/internal/img"
	"bgpvr/internal/iotrace"
	"bgpvr/internal/mpiio"
	"bgpvr/internal/obs"
	"bgpvr/internal/render"
	"bgpvr/internal/stats"
	"bgpvr/internal/telemetry"
	"bgpvr/internal/trace"
	"bgpvr/internal/vfile"
	"bgpvr/internal/volume"
)

// CompositeAlgo selects the compositing algorithm for real mode.
type CompositeAlgo int

// The compositing algorithms.
const (
	CompositeDirectSend CompositeAlgo = iota
	CompositeBinarySwap
	CompositeSerialGather
	// CompositeRadixK uses the radix-k generalization (the paper's
	// follow-on work) with target radix 4.
	CompositeRadixK
)

// ParseCompositeAlgo returns the algorithm a name selects: "" or
// "direct", "binaryswap", "radixk", or "gather".
func ParseCompositeAlgo(name string) (CompositeAlgo, error) {
	switch name {
	case "", "direct":
		return CompositeDirectSend, nil
	case "binaryswap":
		return CompositeBinarySwap, nil
	case "radixk":
		return CompositeRadixK, nil
	case "gather":
		return CompositeSerialGather, nil
	}
	return 0, fmt.Errorf("algo %q: want direct, binaryswap, radixk, or gather", name)
}

// RealConfig configures a real-mode end-to-end frame.
type RealConfig struct {
	// Ctx, when non-nil, bounds the frame: cancellation (a deadline, a
	// dropped client) is checked by each rank before each of its first
	// three stages, and a rank that sees it fails the world, which
	// unwinds the others; an abandoned frame stops within one stage
	// instead of running to completion. A request ID attached via
	// WithRequestID is noted in the flight ring. nil means
	// context.Background().
	Ctx   context.Context
	Scene Scene
	Procs int
	// Compositors is direct-send's m; 0 means m = Procs (the "original"
	// scheme).
	Compositors int
	Algo        CompositeAlgo
	// Format and Path select the on-disk time step; FormatGenerate
	// skips I/O and synthesizes blocks in memory.
	Format Format
	Path   string
	// Hints are the MPI-IO hints; CBNodes 0 means min(Procs, 8) and
	// CBBufferSize 0 the window the read planner chooses
	// (mpiio.ChooseWindow).
	Hints mpiio.Hints
	// GhostExchange obtains the ghost layers by neighbor messages after
	// reading only each block's own extent, instead of folding the halo
	// into the collective read (the default). Both produce identical
	// fields; the ghost ablation weighs extra I/O against messages.
	GhostExchange bool
	// BlocksPerRank assigns several blocks to each process round-robin
	// (the paper "statically allocates a small number of blocks to each
	// process"), which evens out the spatial load. Default 1. Values
	// above 1 require the direct-send algorithm.
	BlocksPerRank int
	// Trace, when non-nil, records per-rank spans and counters for the
	// whole frame (io/render/composite stages plus the comm, mpiio and
	// compose internals). Create with trace.New(Procs). The caller owns
	// export; nil costs nothing.
	Trace *trace.Tracer
	// Net, when non-nil, receives the run's network and I/O telemetry:
	// point-to-point and collective payload-size histograms from the
	// comm runtime and the MPI-IO aggregators' physical access sizes.
	// nil costs nothing.
	Net *telemetry.NetTelemetry
	// CritPath, when non-nil, records a dependency edge at every
	// synchronization point (send→recv matches, collective exchanges,
	// MPI-IO aggregator scatter, compositing fragment exchange; a real
	// frame runs no barrier, so it records no barrier edge). Combine
	// with Trace and assemble the causal event graph afterwards via
	// critpath.FromTrace(Trace, CritPath).
	// Create with critpath.NewRecorder(Trace, hint); nil costs
	// nothing.
	CritPath *critpath.Recorder
	// Fields, when non-nil, caches synthesized block fields across
	// frames (FormatGenerate only — on-disk reads go through the
	// MPI-IO path untouched, and GhostExchange mutates fields so it
	// also bypasses the cache). The render service supplies one so
	// repeated requests for the same scene skip regeneration.
	Fields FieldCache
}

// RealResult is the outcome of one real-mode frame.
type RealResult struct {
	Image   *img.Image
	Times   StageTimes
	IO      iotrace.Stats
	Samples int64 // total across ranks
	// SampleBalance is max/mean samples per rank.
	SampleBalance float64
	// Traffic is the compositing-stage message traffic.
	Traffic comm.TrafficStats
}

// RunReal executes the full pipeline with p goroutine ranks and returns
// the frame. The ranks synchronize only where the data does (the
// collective read, the fragment messages, and Run waiting for every
// rank), so one rank may cast while another still reads or already
// composites. Each rank stamps its own clock as it ends each stage, and
// a stage of the result ends at the last rank's stamp: the frame is
// timed from the start of reading "to the time that the final image is
// completed", as in the paper, without the barriers the paper timed
// its stages at.
func RunReal(cfg RealConfig) (*RealResult, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("core: Procs must be >= 1")
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if id := RequestIDFrom(ctx); id != "" {
		obs.Note("frame start: request %s (real, procs=%d)", id, cfg.Procs)
	}
	m := cfg.Compositors
	if m <= 0 {
		m = cfg.Procs
	}
	if m > cfg.Procs {
		return nil, fmt.Errorf("core: Compositors %d > Procs %d", m, cfg.Procs)
	}
	s := cfg.Scene
	ghost := render.GhostLayersFor(s.RenderConfig())
	bpr := cfg.BlocksPerRank
	if bpr <= 0 {
		bpr = 1
	}
	if bpr > 1 && cfg.Algo != CompositeDirectSend {
		return nil, fmt.Errorf("core: BlocksPerRank > 1 requires direct-send compositing")
	}
	if bpr > 1 && cfg.GhostExchange {
		return nil, fmt.Errorf("core: BlocksPerRank > 1 uses ghost-in-read only")
	}
	nblocks := cfg.Procs * bpr
	d := grid.NewDecomp(s.Dims, nblocks)
	cam := s.Camera()
	tf := s.Transfer()
	rcfg := s.RenderConfig()
	order := s.FrontToBack(d)
	rects := make([]img.Rect, nblocks)
	for b := range rects {
		rects[b] = render.ProjectedRect(cam, d.BlockExtent(b))
	}

	var lay *layout
	var file *vfile.Traced
	var hints mpiio.Hints
	if cfg.Format != FormatGenerate {
		var err error
		lay, err = formatLayout(cfg.Format, s)
		if err != nil {
			return nil, err
		}
		union, err := lay.takeRuns(grid.WholeGrid(s.Dims))
		if err != nil {
			return nil, err
		}
		hints = frameHints(cfg.Hints, min(cfg.Procs, 8), union)
		runLists.Put(union)
		tr, closeFn, err := openTraced(cfg.Path)
		if err != nil {
			return nil, err
		}
		defer closeFn()
		file = tr
	}

	// A field this frame makes is the frame's own, recycled once the
	// render stage is through with it, unless the field cache keeps it.
	ownFields := cfg.Format != FormatGenerate || cfg.Fields == nil || cfg.GhostExchange
	newField := volume.NewField
	if ownFields {
		newField = volume.NewScratchField
	}

	res := &RealResult{}
	var mu sync.Mutex
	var usefulBytes int64
	rankSamples := make([]int64, cfg.Procs)
	// stamps[rank] is rank-private like rankSamples: each rank's own
	// stage boundaries and its compositing traffic, folded after the
	// world ends.
	start := time.Now()
	stamps := make([]stageStamps, cfg.Procs)
	// A rank's blocks, their fields and their subimages are its window
	// of three per-frame arrays, rank r's at [r*bpr, (r+1)*bpr).
	blocks := make([]int, nblocks)
	blockFields := make([]*volume.Field, nblocks)
	blockSubs := make([]*render.Subimage, nblocks)

	world := comm.NewWorld(cfg.Procs)
	world.SetTracer(cfg.Trace)
	world.SetNetTelemetry(cfg.Net)
	world.SetCritPath(cfg.CritPath)
	err := world.Run(func(c *comm.Comm) error {
		rank := c.Rank()
		tr := c.Trace()
		// Blocks assigned round-robin: rank r owns blocks r, r+p, ...
		lo, hi := rank*bpr, (rank+1)*bpr
		myBlocks := blocks[lo:hi:hi]
		for i := range myBlocks {
			myBlocks[i] = rank + i*cfg.Procs
		}

		// Each rank checks ctx at each of its own stage boundaries. No
		// barrier aligns them, so the ranks resolve the checks at
		// different moments: one may return while another goes on, and
		// World's abort then unwinds the frame (blocked ranks panic out
		// of their receives, and Run returns the first error, the
		// cancellation).
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: frame canceled before io: %w", err)
		}
		stamps[rank].at[0] = time.Since(start)

		// Stage 1: I/O (or in-memory generation), one collective round
		// per block slot, which every rank joins in the same order. The
		// halo comes either from the read itself or from a neighbor
		// exchange afterwards.
		ioSp := tr.Begin(trace.PhaseIO, "io")
		fields := blockFields[lo:hi:hi]
		var myUseful int64
		for i, b := range myBlocks {
			own := d.BlockExtent(b)
			readExt := d.GhostExtent(b, ghost)
			if cfg.GhostExchange {
				readExt = own
			}
			if cfg.Format == FormatGenerate {
				// GhostExchange mutates the field in place below, so a
				// shared cached copy would be corrupted — bypass.
				cache := cfg.Fields
				if cfg.GhostExchange {
					cache = nil
				}
				fields[i] = generateBlock(cache, tr, s, readExt, newField)
				continue
			}
			fld := newField(s.Dims, readExt)
			if err := lay.readInto(c, file, fld, hints); err != nil {
				return err
			}
			myUseful += volume.WireFloatBytes * int64(len(fld.Data))
			fields[i] = fld
		}
		if myUseful != 0 {
			mu.Lock()
			usefulBytes += myUseful
			mu.Unlock()
		}
		if cfg.GhostExchange {
			grown, err := halo.Exchange(c, d, fields[0], ghost)
			if err != nil {
				return err
			}
			if ownFields {
				fields[0].Release()
			}
			fields[0] = grown
		}
		stamps[rank].at[1] = time.Since(start)
		ioSp.End()
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: frame canceled before render: %w", err)
		}

		// Stage 2: rendering (no communication).
		renderSp := tr.Begin(trace.PhaseRender, "render")
		subs := blockSubs[lo:hi:hi]
		var mySamples int64
		for i, b := range myBlocks {
			subs[i] = render.RenderBlockTraced(fields[i], d.BlockExtent(b), cam, tf, rcfg, tr)
			mySamples += subs[i].Samples
		}
		// rankSamples[rank] is rank-private, so the render loop shares
		// nothing: the per-rank totals are folded into res.Samples after
		// the world finishes.
		rankSamples[rank] = mySamples
		if ownFields {
			for _, f := range fields {
				f.Release()
			}
		}
		sub := subs[0]
		stamps[rank].at[2] = time.Since(start)
		renderSp.End()
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: frame canceled before composite: %w", err)
		}

		// Stage 3: compositing, bracketed by the rank's own counters so
		// that what it sent earlier (the read's or a ghost exchange's) is
		// left out.
		compSp := tr.Begin(trace.PhaseComposite, "composite")
		stamps[rank].sent[0] = c.Sent()
		var final *img.Image
		var err error
		switch cfg.Algo {
		case CompositeDirectSend:
			final, err = compose.DirectSendBlocks(c, subs, myBlocks, rects, s.ImageW, s.ImageH, m, order)
		case CompositeBinarySwap:
			final, err = compose.BinarySwap(c, sub, s.ImageW, s.ImageH, order)
		case CompositeSerialGather:
			final, err = compose.SerialGather(c, sub, rects, s.ImageW, s.ImageH, order)
		case CompositeRadixK:
			final, err = compose.RadixK(c, sub, s.ImageW, s.ImageH, compose.RadixKFactor(cfg.Procs, 4), order)
		default:
			err = fmt.Errorf("core: unknown composite algorithm %d", cfg.Algo)
		}
		if err != nil {
			return err
		}
		// The compositor has copied what it needed of the subimages into
		// messages, and nobody else holds them.
		for _, sub := range subs {
			sub.Release()
		}
		if rank == 0 {
			res.Image = final
		}
		stamps[rank].sent[1] = c.Sent()
		stamps[rank].at[3] = time.Since(start)
		compSp.End()
		return nil
	})
	if err != nil {
		return nil, err
	}

	res.Times = stageTimes(stamps)
	for _, st := range stamps {
		res.Traffic.Messages += st.sent[1].Messages - st.sent[0].Messages
		res.Traffic.TotalBytes += st.sent[1].TotalBytes - st.sent[0].TotalBytes
	}
	if file != nil {
		res.IO = file.Log.Stats()
		res.IO.UsefulBytes = usefulBytes
	}
	var sum stats.Summary
	for _, n := range rankSamples {
		res.Samples += n
		sum.Add(float64(n))
	}
	res.SampleBalance = sum.Imbalance()
	return res, nil
}

// stageStamps are one rank's own four stage boundaries (its start of
// io, and its ends of io, render and composite), as offsets from the
// frame's start, and its own sent traffic as it starts and as it ends
// compositing.
type stageStamps struct {
	at   [4]time.Duration
	sent [2]comm.TrafficStats
}

// stageTimes folds the ranks' stamps into the frame's stage times. The
// frame starts when its first rank starts: ranks overlap without
// barriers, and one that starts late must not hide the work of those
// that started earlier. A stage is over when its last rank is through
// it, so each later boundary is the latest stamp over the ranks, and a
// stage's time is what it adds after the previous boundary. A rank's
// own stamps rise, so no stage is negative even where the ranks' stages
// overlap.
func stageTimes(stamps []stageStamps) StageTimes {
	b := stamps[0].at
	for _, st := range stamps[1:] {
		b[0] = min(b[0], st.at[0])
		for i := 1; i < len(b); i++ {
			b[i] = max(b[i], st.at[i])
		}
	}
	return StageTimes{
		IO:        (b[1] - b[0]).Seconds(),
		Render:    (b[2] - b[1]).Seconds(),
		Composite: (b[3] - b[2]).Seconds(),
		Total:     (b[3] - b[0]).Seconds(),
	}
}

// generateBlock synthesizes the scene's variable over ext. Without a
// cache it Fills a new field. With one it returns the cached field, or
// on a miss builds it from the block's cached turbulence table, which
// every step of the seed shares. The fill spans open only on misses, so
// their presence in a request trace tells cold fills from hits.
func generateBlock(cache FieldCache, tr *trace.Rank, s Scene, ext grid.Extent,
	newField func(grid.IVec3, grid.Extent) *volume.Field) *volume.Field {
	sn := s.Supernova()
	if cache == nil {
		sp := tr.Begin(trace.PhaseIO, "field-cache-fill")
		defer sp.End()
		f := newField(s.Dims, ext)
		sn.Fill(f, s.Variable)
		return f
	}
	key := TurbulenceKey{Variable: s.Variable, Dims: s.Dims, Ext: ext, Seed: s.Seed}
	return cache.Get(FieldKey{key, s.Time}, func() *volume.Field {
		sp := tr.Begin(trace.PhaseIO, "field-cache-fill")
		defer sp.End()
		turb := cache.Turbulence(key, func() *volume.Turbulence {
			sp := tr.Begin(trace.PhaseIO, "turbulence-fill")
			defer sp.End()
			return sn.Turbulence(s.Variable, s.Dims, ext)
		})
		f := newField(s.Dims, ext)
		sn.FillFrom(f, s.Variable, turb)
		return f
	})
}
