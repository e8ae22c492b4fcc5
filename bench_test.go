package bgpvr

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation benches DESIGN.md calls out and micro-benchmarks of the hot
// substrate paths. The figure benches run the machine-model experiment
// and report its headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// regenerates every exhibit's numbers. Use -benchtime=1x for a single
// regeneration pass.

import (
	"fmt"
	"path/filepath"
	"testing"

	"bgpvr/internal/bench"
	"bgpvr/internal/comm"
	"bgpvr/internal/compose"
	"bgpvr/internal/core"
	"bgpvr/internal/grid"
	"bgpvr/internal/img"
	"bgpvr/internal/machine"
	"bgpvr/internal/mpiio"
	"bgpvr/internal/netcdf"
	"bgpvr/internal/render"
	"bgpvr/internal/torus"
	"bgpvr/internal/vfile"
	"bgpvr/internal/volume"
)

var mach = machine.NewBGP()

// --- Paper exhibits -------------------------------------------------

// BenchmarkFig3 regenerates the total/component-time sweep (Fig 3) and
// reports the best all-inclusive frame time (paper: 5.9 s at 16K cores).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, _, err := bench.Fig3(mach)
		if err != nil {
			b.Fatal(err)
		}
		best := 1e18
		for _, pt := range pts {
			if pt.Total < best {
				best = pt.Total
			}
		}
		b.ReportMetric(best, "best-frame-s")
	}
}

// BenchmarkFig4 regenerates the compositing-bandwidth study and reports
// the original scheme's bandwidth at 32K cores.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, _, err := bench.Fig4(mach)
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		b.ReportMetric(last.OriginalBW/1e6, "orig-MB/s@32K")
		b.ReportMetric(last.ImprovedBW/1e6, "impr-MB/s@32K")
	}
}

// BenchmarkFig5 regenerates the three-size frame-time summary and
// reports the 4480^3 time at 32K (paper: 220.8 s).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, _, err := bench.Fig5(mach)
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range pts {
			if pt.Grid == 4480 && pt.Procs == 32768 {
				b.ReportMetric(pt.Total, "4480@32K-s")
			}
		}
	}
}

// BenchmarkTable2 regenerates Table II and reports the 2240^3 read
// bandwidth at 32K cores (paper: 1.26 GB/s).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.Table2(mach)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Grid == 2240 && r.Procs == 32768 {
				b.ReportMetric(r.ReadBW/1e9, "read-GB/s")
				b.ReportMetric(r.PctIO, "pct-io")
			}
		}
	}
}

// BenchmarkFig6 regenerates the stage-share distribution and reports the
// I/O share at 16K cores.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, _, err := bench.Fig6(mach)
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range pts {
			if pt.Procs == 16384 {
				b.ReportMetric(pt.PctIO, "pct-io@16K")
			}
		}
	}
}

// BenchmarkFig7 regenerates the I/O-mode bandwidth comparison and
// reports the untuned-netCDF slowdown at low core counts (paper: 4-5x).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, _, err := bench.Fig7(mach)
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range pts {
			if pt.Procs == 256 {
				b.ReportMetric(pt.RawBW/pt.OrigBW, "untuned-slowdown@256")
			}
		}
	}
}

// BenchmarkFig8 regenerates the netCDF layout dump.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig8(1120); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9 regenerates the access-pattern maps and reports the
// untuned physical-read volume (paper: ~most of the 28 GB file).
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		modes, _, err := bench.Fig9(mach)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(modes[0].Stats.PhysicalBytes)/1e9, "untuned-GB")
	}
}

// BenchmarkFig10 regenerates the five-mode synthetic I/O benchmark and
// reports the fastest/slowest spread.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		modes, _, err := bench.Fig10(mach)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(modes[len(modes)-1].Time/modes[0].Time, "slowest/fastest")
	}
}

// --- Ablations (DESIGN.md) -------------------------------------------

// BenchmarkAblationCompositors sweeps m for n=16K renderers and reports
// the gain of the paper's choice (m=2048) over m=n.
func BenchmarkAblationCompositors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		byM, _, err := bench.AblationCompositors(mach, 16384)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(byM[16384]/byM[2048], "gain-m2048")
	}
}

// BenchmarkAblationCompositeAlgo compares direct-send and binary swap.
func BenchmarkAblationCompositeAlgo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationCompositeAlgo(mach); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCBBuffer sweeps the collective buffer size.
func BenchmarkAblationCBBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.AblationCBBuffer(mach); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationContention isolates the network-model terms.
func BenchmarkAblationContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationContention(mach); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAggregators sweeps the I/O aggregator count.
func BenchmarkAblationAggregators(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationAggregators(mach); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTwoPhase compares collective, sieved-independent and
// exact-independent reads of one record variable on a real file.
func BenchmarkAblationTwoPhase(b *testing.B) {
	scene := core.DefaultScene(48, 64)
	path := filepath.Join(b.TempDir(), "step.nc")
	if err := core.WriteSceneFile(path, core.FormatNetCDF, scene); err != nil {
		b.Fatal(err)
	}
	union, err := core.UnionRuns(core.FormatNetCDF, scene)
	if err != nil {
		b.Fatal(err)
	}
	f, err := vfile.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	b.Run("collective", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.RunReal(core.RealConfig{
				Scene: scene, Procs: 4, Format: core.FormatNetCDF, Path: path,
				Hints: mpiio.Hints{CBBufferSize: 48 * 48 * 4, CBNodes: 2}})
			if err != nil {
				b.Fatal(err)
			}
			_ = res
		}
	})
	b.Run("independent-sieved", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mpiio.IndependentRead(f, union, 1<<20); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("independent-exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mpiio.IndependentRead(f, union, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationGhost measures the I/O cost of the ghost-in-read
// strategy: bytes read with and without the halo layer.
func BenchmarkAblationGhost(b *testing.B) {
	scene := core.DefaultScene(64, 64)
	d := grid.NewDecomp(scene.Dims, 8)
	for i := 0; i < b.N; i++ {
		var with, without int64
		for r := 0; r < 8; r++ {
			without += grid.TotalBytes(grid.Runs(scene.Dims, d.BlockExtent(r), 4, 0))
			with += grid.TotalBytes(grid.Runs(scene.Dims, d.GhostExtent(r, 1), 4, 0))
		}
		b.ReportMetric(float64(with)/float64(without), "ghost-overhead")
	}
}

// --- Substrate micro-benchmarks --------------------------------------

// BenchmarkRenderBlock measures the ray-casting hot loop; it also
// calibrates the real-mode seconds-per-sample constant. The workers
// sub-benchmarks cast one 256^3 block (memory-bound: 67 MB of voxels)
// with the internal/par scanline pool and should scale near-linearly
// 1 -> 4 workers (given cores). block=48of96 casts one rank's share of
// the benchmark's frame-render scene instead: a 48^3 block of a 96^3
// volume under a 512^2 image, which stays in cache, so it shows the
// kernel's arithmetic rather than its misses; the sub-benchmarks after
// it turn on, one at a time, each thing the cast's one sample walk also
// serves, so that a kernel change shows which configuration paid for it
// (ns per counted sample: early termination counts fewer).
// blocks=4of16-step=16 casts every rank's share of frame-composite in
// turn: the 64 4^3 blocks of a 16^3 volume at step 16 under a 1024^2
// image, where a ray takes at most one sample and nine rays in ten none,
// so it reports ns per rectangle pixel over the 64 rectangles — the cost
// of the rays, not of the samples.
func BenchmarkRenderBlock(b *testing.B) {
	// cast renders block 0 of the decomposition, or with all every block.
	cast := func(scene core.Scene, blocks, workers int, earlyTermination float64, all bool) func(b *testing.B) {
		return func(b *testing.B) {
			d := grid.NewDecomp(scene.Dims, blocks)
			cam, tf, cfg := scene.Camera(), scene.Transfer(), scene.RenderConfig()
			cfg.Workers, cfg.EarlyTerminationAlpha = workers, earlyTermination
			flds := make([]*volume.Field, 1)
			if all {
				flds = make([]*volume.Field, blocks)
			}
			for r := range flds {
				flds[r] = scene.Supernova().Generate(scene.Variable, scene.Dims, d.GhostExtent(r, render.GhostLayersFor(cfg)))
			}
			var samples, pixels int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				samples, pixels = 0, 0
				for r, fld := range flds {
					sub := render.RenderBlock(fld, d.BlockExtent(r), cam, tf, cfg)
					samples, pixels = samples+sub.Samples, pixels+int64(sub.Rect.NumPixels())
				}
			}
			if all {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pixels)/float64(b.N), "ns/px")
			} else {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(samples)/float64(b.N), "ns/sample")
			}
		}
	}
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), cast(core.DefaultScene(256, 256), 1, w, 0, false))
	}
	block := core.DefaultScene(96, 512)
	b.Run("block=48of96", cast(block, 8, 1, 0, false))
	shaded, persp, half := block, block, block
	shaded.Shaded, persp.Perspective, half.Step = true, true, 0.5
	b.Run("block=48of96-shaded", cast(shaded, 8, 1, 0, false))
	b.Run("block=48of96-perspective", cast(persp, 8, 1, 0, false))
	b.Run("block=48of96-early-termination=0.9", cast(block, 8, 1, 0.9, false))
	b.Run("block=48of96-step=0.5", cast(half, 8, 1, 0, false))
	composite := core.DefaultScene(16, 1024)
	composite.Step = 16
	b.Run("blocks=4of16-step=16", cast(composite, 64, 1, 0, true))
}

// BenchmarkDirectSendCast times one direct-send composite of
// frame-composite's scene: the 64 cast subimages of a 16^3 volume at
// step 16 under a 1024^2 image, composited by 16 of the 64 ranks. The
// cast's spans and sparsity (17 % of the image is non-transparent) are
// what the fragment encoder and the span gather see in that workload.
func BenchmarkDirectSendCast(b *testing.B) {
	const p, m, n, size = 64, 16, 16, 1024
	s := core.DefaultScene(n, size)
	s.Step = n
	d := grid.NewDecomp(s.Dims, p)
	cam, tf, cfg := s.Camera(), s.Transfer(), s.RenderConfig()
	order := s.FrontToBack(d)
	subs, rects := make([]*render.Subimage, p), make([]img.Rect, p)
	for r := range subs {
		f := s.Supernova().Generate(s.Variable, s.Dims, d.GhostExtent(r, render.GhostLayersFor(cfg)))
		subs[r] = render.RenderBlock(f, d.BlockExtent(r), cam, tf, cfg)
		rects[r] = render.ProjectedRect(cam, d.BlockExtent(r))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := comm.NewWorld(p).Run(func(c *comm.Comm) error {
			_, err := compose.DirectSend(c, subs[c.Rank()], rects, size, size, m, order)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(size*size), "ns/px")
}

// BenchmarkSupernovaEval measures synthetic-data generation.
func BenchmarkSupernovaEval(b *testing.B) {
	sn := volume.Supernova{Seed: 1, Time: 1}
	dims := grid.Cube(1120)
	var s float32
	for i := 0; i < b.N; i++ {
		s += sn.Eval(volume.VarVelocityX, dims, i%1120, (i*7)%1120, (i*13)%1120)
	}
	_ = s
}

// BenchmarkSupernovaGenerate measures the row kernel on the three block
// shapes the workloads generate: a whole grid, one ghost block of an
// 8-way decomposition (a service miss generates 8 of them), and one of
// the 64 blocks of a frame-composite frame. On the service's block it
// also times each half alone: building the Time-independent turbulence
// table, and the resident path that regenerates a step from it.
func BenchmarkSupernovaGenerate(b *testing.B) {
	sn := volume.Supernova{Seed: 1530, Time: 1.1}
	perVoxel := func(b *testing.B, ext grid.Extent) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ext.Count())/float64(b.N), "ns/voxel")
	}
	for _, c := range []struct {
		name     string
		n, procs int
	}{{"whole=64", 64, 1}, {"ghost=33of64", 64, 8}, {"tiny=6of16", 16, 64}} {
		b.Run(c.name, func(b *testing.B) {
			dims := grid.Cube(c.n)
			ext := grid.NewDecomp(dims, c.procs).GhostExtent(0, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sn.Generate(volume.VarVelocityX, dims, ext)
			}
			perVoxel(b, ext)
		})
	}
	dims := grid.Cube(64)
	ext := grid.NewDecomp(dims, 8).GhostExtent(0, 1)
	b.Run("ghost=33of64-turbulence", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sn.Turbulence(volume.VarVelocityX, dims, ext)
		}
		perVoxel(b, ext)
	})
	b.Run("ghost=33of64-resident", func(b *testing.B) {
		turb := sn.Turbulence(volume.VarVelocityX, dims, ext)
		f := volume.NewField(dims, ext)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sn.FillFrom(f, volume.VarVelocityX, turb)
		}
		perVoxel(b, ext)
	})
}

// BenchmarkTorusPhase measures the network model on a 32K-rank
// direct-send schedule — the heaviest model-mode computation.
func BenchmarkTorusPhase(b *testing.B) {
	scene, _ := core.PaperScene(1120)
	d := grid.NewDecomp(scene.Dims, 32768)
	cam := scene.Camera()
	rects := make([]img.Rect, d.NumBlocks())
	for r := range rects {
		rects[r] = render.ProjectedRect(cam, d.BlockExtent(r))
	}
	msgs := compose.DirectSendSchedule(rects, scene.ImageW, scene.ImageH, 32768, compose.PixelBytes)
	top := mach.TorusFor(32768)
	nm := make([]torus.Message, len(msgs))
	for i, mm := range msgs {
		nm[i] = torus.Message{Src: mach.NodeOf(mm.Src), Dst: mach.NodeOf(mm.Dst), Bytes: mm.Bytes}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		torus.Phase(top, mach.Torus, nm, true)
	}
	b.ReportMetric(float64(len(nm)), "messages")
}

// BenchmarkNetCDFHeader measures header encode/decode round trips.
func BenchmarkNetCDFHeader(b *testing.B) {
	names := []string{"pressure", "density", "velocity_x", "velocity_y", "velocity_z"}
	f, err := netcdf.NewVolumeFile(netcdf.V2, grid.Cube(1120), names, true)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := netcdf.DecodeHeader(netcdf.EncodeHeader(f)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndRealFrame measures a complete small real-mode frame.
func BenchmarkEndToEndRealFrame(b *testing.B) {
	scene := core.DefaultScene(48, 128)
	for i := 0; i < b.N; i++ {
		if _, err := core.RunReal(core.RealConfig{Scene: scene, Procs: 8, Format: core.FormatGenerate}); err != nil {
			b.Fatal(err)
		}
	}
}
