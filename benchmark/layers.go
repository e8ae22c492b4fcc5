package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"bgpvr/internal/comm"
	"bgpvr/internal/compose"
	"bgpvr/internal/core"
	"bgpvr/internal/critpath"
	"bgpvr/internal/flowsim"
	"bgpvr/internal/geom"
	"bgpvr/internal/grid"
	"bgpvr/internal/h5lite"
	"bgpvr/internal/halo"
	"bgpvr/internal/img"
	"bgpvr/internal/iotrace"
	"bgpvr/internal/machine"
	"bgpvr/internal/mpiio"
	"bgpvr/internal/netcdf"
	"bgpvr/internal/obs"
	"bgpvr/internal/par"
	"bgpvr/internal/pfs"
	"bgpvr/internal/rawfmt"
	"bgpvr/internal/render"
	"bgpvr/internal/telemetry"
	"bgpvr/internal/torus"
	"bgpvr/internal/trace"
	"bgpvr/internal/vfile"
	"bgpvr/internal/volume"
)

// layerRow is one row of the layer table: a layer's public call timed
// on its own, from outside, at a size taken from the workload shapes.
// run emits the row's `layer.metric` values with their work counts.
type layerRow struct {
	layer string
	call  string
	size  func(sz sizes) string
	run   func(lc *layerCtx) error
}

// layerCtx is what rows share: the run's config, the metrics they fill,
// a seeded source for sample points, and inputs several rows reuse.
type layerCtx struct {
	cfg  *config
	m    metrics
	rng  *rand.Rand
	mach machine.Machine

	field96 *volume.Field // the frame-render volume, whole grid
	sched   *scaleSchedule
}

// sink keeps results alive so the compiler cannot drop a timed call.
var sink any

func cube(n int) string { return fmt.Sprintf("%d^3", n) }

// renderField is the frame-render volume, generated once per table.
func (lc *layerCtx) renderField() *volume.Field {
	if lc.field96 == nil {
		s := core.DefaultScene(lc.cfg.sz.renderN, lc.cfg.sz.renderImg)
		lc.field96 = s.Supernova().GenerateFull(s.Variable, s.Dims)
	}
	return lc.field96
}

// scaleSchedule is the paper-scale direct-send exchange the schedule
// and torus rows share, with the time DirectSendSchedule took.
type scaleSchedule struct {
	top   torus.Topology
	msgs  []torus.Message
	build time.Duration
}

func (lc *layerCtx) scaleSchedule() *scaleSchedule {
	if lc.sched != nil {
		return lc.sched
	}
	s := paperScene()
	p := lc.cfg.sz.scaleProcs
	d := grid.NewDecomp(s.Dims, p)
	cam := s.Camera()
	rects := make([]img.Rect, p)
	for r := range rects {
		rects[r] = render.ProjectedRect(cam, d.BlockExtent(r))
	}
	var msgs []compose.RankMessage
	lc.sched = &scaleSchedule{top: lc.mach.TorusFor(p)}
	lc.sched.build = timeMedian(2, func() { msgs = compose.DirectSendSchedule(rects, s.ImageW, s.ImageH, p, compose.PixelBytes) })
	for _, mm := range msgs {
		lc.sched.msgs = append(lc.sched.msgs, torus.Message{Src: lc.mach.NodeOf(mm.Src), Dst: lc.mach.NodeOf(mm.Dst), Bytes: mm.Bytes})
	}
	return lc.sched
}

// paperScene is the paper's 1120^3 volume with its 1600^2 image.
func paperScene() core.Scene { return core.DefaultScene(paperN, 1600) }

// worldTime runs fn on p ranks and returns the wall time of the run.
func worldTime(p int, fn func(c *comm.Comm) error) (time.Duration, *comm.World, error) {
	w := comm.NewWorld(p)
	start := time.Now()
	err := w.Run(fn)
	return time.Since(start), w, err
}

// composeInputs renders the frame-composite scene on p ranks and
// returns what the compositors take.
type composeInputs struct {
	s     core.Scene
	subs  []*render.Subimage
	rects []img.Rect
	order []int
}

func newComposeInputs(sz sizes, p int) *composeInputs {
	s := compositeScene(sz)
	d := grid.NewDecomp(s.Dims, p)
	cam, tf, rcfg := s.Camera(), s.Transfer(), s.RenderConfig()
	in := &composeInputs{s: s, order: s.FrontToBack(d)}
	for b := 0; b < p; b++ {
		f := s.Supernova().Generate(s.Variable, s.Dims, d.GhostExtent(b, 1))
		in.subs = append(in.subs, render.RenderBlock(f, d.BlockExtent(b), cam, tf, rcfg))
		in.rects = append(in.rects, render.ProjectedRect(cam, d.BlockExtent(b)))
	}
	return in
}

// composeRanks is the rank count of the compose rows: binary swap
// needs a power of two, and 16 is frame-composite's compositor count.
const composeRanks = 16

// probeFrames is how many frames each configuration of the frame probe
// runs; the configurations are interleaved so drift hits all alike.
const probeFrames = 15

var layerTable = []layerRow{
	{"volume", "Supernova.Generate", func(sz sizes) string { return cube(sz.serveN) }, func(lc *layerCtx) error {
		s := core.DefaultScene(lc.cfg.sz.serveN, lc.cfg.sz.serveImg)
		ext := grid.WholeGrid(s.Dims)
		d := timeMedian(3, func() { sink = s.Supernova().Generate(s.Variable, s.Dims, ext) })
		lc.m.put("volume.generate_ns_per_voxel", ns(d)/float64(ext.Count()), ext.Count())
		return nil
	}},
	{"volume", "Field.Sample", func(sz sizes) string { return cube(sz.renderN) + ", seeded points" }, func(lc *layerCtx) error {
		f := lc.renderField()
		pts := make([]geom.Vec3, 1<<14)
		hi := float64(f.Dims.X - 1)
		for i := range pts {
			pts[i] = geom.V(lc.rng.Float64()*hi, lc.rng.Float64()*hi, lc.rng.Float64()*hi)
		}
		const passes = 32
		var acc float64
		d := timeMedian(3, func() {
			for p := 0; p < passes; p++ {
				for _, pt := range pts {
					v, _ := f.Sample(pt)
					acc += v
				}
			}
		})
		sink = acc
		n := int64(passes * len(pts))
		lc.m.put("volume.sample_ns", ns(d)/float64(n), n)
		return nil
	}},
	{"volume", "Transfer.Lookup", func(sizes) string { return "seeded values" }, func(lc *layerCtx) error {
		tf := volume.SupernovaTransfer()
		vals := make([]float64, 1<<14)
		for i := range vals {
			vals[i] = lc.rng.Float64()
		}
		const passes = 32
		var acc float64
		d := timeMedian(3, func() {
			for p := 0; p < passes; p++ {
				for _, v := range vals {
					_, _, _, a := tf.Lookup(v)
					acc += a
				}
			}
		})
		sink = acc
		n := int64(passes * len(vals))
		lc.m.put("volume.transfer_lookup_ns", ns(d)/float64(n), n)
		return nil
	}},

	{"render", "RenderBlock", func(sz sizes) string {
		return fmt.Sprintf("one %s block, %d^2 image, 1 worker", cube(sz.renderN), sz.renderImg)
	}, func(lc *layerCtx) error {
		s := core.DefaultScene(lc.cfg.sz.renderN, lc.cfg.sz.renderImg)
		f := lc.renderField()
		cam, tf, rcfg := s.Camera(), s.Transfer(), s.RenderConfig()
		rcfg.Workers = 1
		var sub *render.Subimage
		var d time.Duration
		allocs := mallocsDuring(func() {
			d = timeMedian(2, func() { sub = render.RenderBlock(f, f.Ext, cam, tf, rcfg) })
		})
		lc.m.put("render.ns_per_sample", ns(d)/float64(sub.Samples), sub.Samples)
		lc.m.put("render.samples_per_frame", float64(sub.Samples), 0)
		lc.m.put("render.allocs_per_block", float64(allocs)/2, 2)
		return nil
	}},
	{"render", "RenderBlock", func(sz sizes) string {
		return fmt.Sprintf("%s at step %d, %d^2 rays", cube(sz.compN), sz.compN, sz.compImg)
	}, func(lc *layerCtx) error {
		s := compositeScene(lc.cfg.sz)
		f := s.Supernova().GenerateFull(s.Variable, s.Dims)
		cam, tf, rcfg := s.Camera(), s.Transfer(), s.RenderConfig()
		var sub *render.Subimage
		d := timeMedian(3, func() { sub = render.RenderBlock(f, f.Ext, cam, tf, rcfg) })
		rays := int64(sub.Rect.NumPixels())
		lc.m.put("render.ns_per_ray_setup", ns(d)/float64(rays), rays)
		return nil
	}},
	{"render", "BuildOpacityMask(BuildMinMax)", func(sz sizes) string { return cube(sz.renderN) + ", 8-cell macrocells" }, func(lc *layerCtx) error {
		f, tf := lc.renderField(), volume.SupernovaTransfer()
		d := timeMedian(3, func() { sink = render.BuildOpacityMask(render.BuildMinMax(f, 8), tf) })
		lc.m.put("render.mask_build_ms", ms(d), f.Ext.Count())
		return nil
	}},

	{"img", "OverSlices", func(sizes) string { return "1 M px" }, func(lc *layerCtx) error {
		const n = 1 << 20
		front, back := make([]img.RGBA, n), make([]img.RGBA, n)
		for i := range front {
			a := float32(lc.rng.Float64())
			front[i] = img.RGBA{R: a / 2, G: a / 3, B: a / 4, A: a}
			back[i] = img.RGBA{R: 0.1, G: 0.2, B: 0.3, A: 0.5}
		}
		d := timeMedian(5, func() { img.OverSlices(front, back) })
		lc.m.put("img.over_ns_per_px", ns(d)/n, n)
		return nil
	}},
	{"img", "Image.EncodePPM", func(sz sizes) string { return fmt.Sprintf("%d^2", sz.renderImg) }, func(lc *layerCtx) error {
		im := img.New(lc.cfg.sz.renderImg, lc.cfg.sz.renderImg)
		for i := range im.Pix {
			a := float32(lc.rng.Float64())
			im.Pix[i] = img.RGBA{R: a / 2, G: a / 3, B: a / 4, A: a}
		}
		var buf bytes.Buffer
		var err error
		d := timeMedian(5, func() {
			buf.Reset()
			if e := im.EncodePPM(&buf, 0); e != nil {
				err = e
			}
		})
		lc.m.put("img.encode_ppm_ns_per_px", ns(d)/float64(len(im.Pix)), int64(len(im.Pix)))
		return err
	}},

	{"compose", "DirectSend / BinarySwap / RadixK", func(sz sizes) string { return fmt.Sprintf("%d ranks, %d^2 image", composeRanks, sz.compImg) }, func(lc *layerCtx) error {
		in := newComposeInputs(lc.cfg.sz, composeRanks)
		w, h := in.s.ImageW, in.s.ImageH
		px := int64(w * h)
		// Binary swap and radix-k move whole image halves, half a second a
		// run at this size, so they run once.
		algos := []struct {
			metric string
			reps   int
			run    func(c *comm.Comm) error
		}{
			{"compose.directsend_ns_per_px", 3, func(c *comm.Comm) error {
				_, err := compose.DirectSend(c, in.subs[c.Rank()], in.rects, w, h, composeRanks, in.order)
				return err
			}},
			{"compose.bswap_ns_per_px", 1, func(c *comm.Comm) error {
				_, err := compose.BinarySwap(c, in.subs[c.Rank()], w, h, in.order)
				return err
			}},
			{"compose.radixk_ns_per_px", 1, func(c *comm.Comm) error {
				_, err := compose.RadixK(c, in.subs[c.Rank()], w, h, compose.RadixKFactor(composeRanks, 4), in.order)
				return err
			}},
		}
		for ai, a := range algos {
			var ds []time.Duration
			for rep := 0; rep < a.reps; rep++ {
				var d time.Duration
				var world *comm.World
				var err error
				allocs := mallocsDuring(func() { d, world, err = worldTime(composeRanks, a.run) })
				if err != nil {
					return err
				}
				ds = append(ds, d)
				if ai == 0 && rep == 0 {
					// Messages are counted from the schedule, which is exact;
					// inside a frame World.Stats().Messages varies from run to run
					// (README.md, "Known traps"), so only its bytes are used.
					lc.m.put("compose.directsend_bytes", float64(world.Stats().TotalBytes), 0)
					lc.m.put("compose.directsend_msgs", float64(len(compose.DirectSendSchedule(in.rects, w, h, composeRanks, compose.PixelBytes))), 0)
					lc.m.put("compose.allocs_per_frame", float64(allocs), 1)
				}
			}
			lc.m.put(a.metric, ns(medianDur(ds))/float64(px), px)
		}
		return nil
	}},
	{"compose", "DirectSendSchedule", func(sz sizes) string { return fmt.Sprintf("%d ranks, %s", sz.scaleProcs, cube(paperN)) }, func(lc *layerCtx) error {
		sc := lc.scaleSchedule()
		lc.m.put("compose.schedule_ms", ms(sc.build), int64(len(sc.msgs)))
		return nil
	}},

	{"comm", "Send/Recv", func(sizes) string { return "2 ranks, 8 B round trips; 1 MB one way" }, func(lc *layerCtx) error {
		const trips, bulk = 2000, 200
		small, big := make([]byte, 8), make([]byte, 1<<20)
		var tPing, tBulk time.Duration
		_, _, err := worldTime(2, func(c *comm.Comm) error {
			peer := 1 - c.Rank()
			c.Barrier()
			start := time.Now()
			for i := 0; i < trips; i++ {
				if c.Rank() == 0 {
					c.Send(peer, 1, small)
					c.Recv(peer, 1)
				} else {
					c.Recv(peer, 1)
					c.Send(peer, 1, small)
				}
			}
			if c.Rank() == 0 {
				tPing = time.Since(start)
			}
			c.Barrier()
			start = time.Now()
			for i := 0; i < bulk; i++ {
				if c.Rank() == 0 {
					c.Send(peer, 2, big)
				} else {
					c.Recv(peer, 2)
				}
			}
			c.Barrier()
			if c.Rank() == 0 {
				tBulk = time.Since(start)
			}
			return nil
		})
		lc.m.put("comm.pingpong_us", us(tPing)/trips, trips)
		lc.m.put("comm.bandwidth_mb_per_s", bulk*float64(len(big))/1e6/tBulk.Seconds(), bulk)
		return err
	}},
	{"comm", "Barrier", func(sizes) string { return "8 and 64 ranks" }, func(lc *layerCtx) error {
		for _, r := range []struct {
			metric string
			p      int
		}{{"comm.barrier8_us", 8}, {"comm.barrier64_us", 64}} {
			const n = 200
			var t time.Duration
			_, _, err := worldTime(r.p, func(c *comm.Comm) error {
				c.Barrier()
				start := time.Now()
				for i := 0; i < n; i++ {
					c.Barrier()
				}
				if c.Rank() == 0 {
					t = time.Since(start)
				}
				return nil
			})
			if err != nil {
				return err
			}
			lc.m.put(r.metric, us(t)/n, n)
		}
		return nil
	}},
	{"comm", "Alltoallv", func(sizes) string { return "16 ranks, 4 KB per pair" }, func(lc *layerCtx) error {
		const p, n = 16, 50
		var t time.Duration
		_, _, err := worldTime(p, func(c *comm.Comm) error {
			bufs := make([][]byte, p)
			for i := range bufs {
				bufs[i] = make([]byte, 4096)
			}
			c.Barrier()
			start := time.Now()
			for i := 0; i < n; i++ {
				c.Alltoallv(bufs)
			}
			if c.Rank() == 0 {
				t = time.Since(start)
			}
			return nil
		})
		lc.m.put("comm.alltoallv16_us", us(t)/n, n)
		return err
	}},
	{"comm", "NewWorld.Run", func(sizes) string { return "8 ranks, no-op" }, func(lc *layerCtx) error {
		const n = 200
		var err error
		d := timeMedian(n, func() {
			if e := comm.NewWorld(8).Run(func(*comm.Comm) error { return nil }); e != nil {
				err = e
			}
		})
		lc.m.put("comm.world_run_us", us(d), n)
		return err
	}},

	{"mpiio", "CollectiveRead / IndependentRead", func(sz sizes) string {
		return fmt.Sprintf("%d ranks, MemFile: %s record netCDF variable; %s raw", frameRanks, cube(sz.ioN), cube(sz.renderN))
	}, func(lc *layerCtx) error {
		sz := lc.cfg.sz
		// read times CollectiveRead of every block's ghost extent and
		// returns the useful and physically read bytes.
		read := func(file vfile.File, dims grid.IVec3, runsFor func(grid.Extent) ([]grid.Run, error)) (time.Duration, int64, int64, error) {
			d := grid.NewDecomp(dims, frameRanks)
			reqs := make([][]grid.Run, frameRanks)
			var useful int64
			for r := range reqs {
				runs, err := runsFor(d.GhostExtent(r, 1))
				if err != nil {
					return 0, 0, 0, err
				}
				reqs[r] = runs
				useful += grid.TotalBytes(runs)
			}
			var tf *vfile.Traced
			var err error
			t := timeMedian(3, func() {
				tf = vfile.NewTraced(file)
				_, _, e := worldTime(frameRanks, func(c *comm.Comm) error {
					_, err := mpiio.CollectiveRead(c, tf, reqs[c.Rank()], mpiio.Hints{CBNodes: frameRanks})
					return err
				})
				if e != nil {
					err = e
				}
			})
			return t, useful, iotrace.Analyze(tf.Log.Accesses(), nil).PhysicalBytes, err
		}
		s := core.DefaultScene(sz.ioN, sz.ioImg)
		nf, err := recordFile(s.Dims)
		if err != nil {
			return err
		}
		v, _ := nf.VarByName(s.Variable.Name())
		ncFile := &vfile.MemFile{Data: make([]byte, netcdf.FileSize(nf))}
		t, useful, physical, err := read(ncFile, s.Dims, func(e grid.Extent) ([]grid.Run, error) { return nf.VarRuns(v, e) })
		if err != nil {
			return err
		}
		lc.m.put("mpiio.collective_read_mb_per_s", float64(useful)/1e6/t.Seconds(), useful)
		lc.m.put("mpiio.physical_over_useful", float64(physical)/float64(useful), 0)

		union, err := nf.VarRuns(v, grid.WholeGrid(s.Dims))
		if err != nil {
			return err
		}
		t = timeMedian(3, func() {
			if _, e := mpiio.IndependentRead(ncFile, union, 1<<20); e != nil {
				err = e
			}
		})
		lc.m.put("mpiio.independent_read_mb_per_s", float64(grid.TotalBytes(union))/1e6/t.Seconds(), grid.TotalBytes(union))
		if err != nil {
			return err
		}

		raw := grid.Cube(sz.renderN)
		rawFile := &vfile.MemFile{Data: make([]byte, rawfmt.FileSize(raw))}
		t, useful, _, err = read(rawFile, raw, func(e grid.Extent) ([]grid.Run, error) { return rawfmt.VarRuns(raw, e), nil })
		lc.m.put("mpiio.collective_read_contig_mb_per_s", float64(useful)/1e6/t.Seconds(), useful)
		return err
	}},
	{"mpiio", "BuildPlan", func(sz sizes) string { return cube(paperN) + " netCDF union, 64 aggregators" }, func(lc *layerCtx) error {
		union, err := core.UnionRuns(core.FormatNetCDF, paperScene())
		if err != nil {
			return err
		}
		d := timeMedian(20, func() { sink = mpiio.BuildPlan(union, mpiio.Hints{CBNodes: 64}) })
		lc.m.put("mpiio.plan_ms", ms(d), int64(len(union)))
		return nil
	}},

	{"netcdf, rawfmt, grid", "DecodeFloats, DecodeInto, header round trip, VarRuns, Runs", func(sz sizes) string {
		return "1 M elements; " + cube(paperN) + " header; " + cube(sz.ioN) + " block"
	}, func(lc *layerCtx) error {
		const n = 1 << 20
		raw, dst := make([]byte, 4*n), make([]float32, n)
		lc.rng.Read(raw)
		d := timeMedian(5, func() { netcdf.DecodeFloats(raw, dst) })
		lc.m.put("netcdf.decode_ns_per_elem", ns(d)/n, n)
		d = timeMedian(5, func() { rawfmt.DecodeInto(raw, dst) })
		lc.m.put("rawfmt.decode_ns_per_elem", ns(d)/n, n)

		big, err := recordFile(grid.Cube(paperN))
		if err != nil {
			return err
		}
		d = timeMedian(200, func() {
			if _, e := netcdf.DecodeHeader(netcdf.EncodeHeader(big)); e != nil {
				err = e
			}
		})
		lc.m.put("netcdf.header_roundtrip_us", us(d), 200)
		if err != nil {
			return err
		}

		dims := grid.Cube(lc.cfg.sz.ioN)
		nf, err := recordFile(dims)
		if err != nil {
			return err
		}
		v, _ := nf.VarByName("velocity_x")
		ext := grid.NewDecomp(dims, frameRanks).GhostExtent(0, 1)
		var runs []grid.Run
		d = timeMedian(50, func() {
			if runs, err = nf.VarRuns(v, ext); err != nil {
				return
			}
		})
		lc.m.put("netcdf.varruns_us", us(d), int64(len(runs)))
		d = timeMedian(100, func() { sink = grid.Runs(dims, ext, 4, 0) })
		lc.m.put("grid.runs_us", us(d), int64(len(runs)))
		return err
	}},
	{"h5lite", "Write, Open, ReadExtent; vfile.OSFile.ReadAt", func(sz sizes) string { return cube(sz.serveN) + " x 5 datasets on a scratch file" }, func(lc *layerCtx) error {
		dims := grid.Cube(lc.cfg.sz.serveN)
		path := filepath.Join(lc.cfg.scratch, "layers.h5")
		if err := h5lite.Write(path, dims, varNames(), func(v, x, y, z int) float32 { return float32(v + x + y + z) }); err != nil {
			return err
		}
		f, err := vfile.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		hf, err := h5lite.Open(f)
		if err != nil {
			return err
		}
		ds, ok := hf.DatasetByName("velocity_x")
		if !ok {
			return fmt.Errorf("h5lite: dataset velocity_x missing")
		}
		ext := grid.NewDecomp(dims, frameRanks).GhostExtent(0, 1)
		d := timeMedian(5, func() {
			if _, e := h5lite.ReadExtent(f, ds, ext); e != nil {
				err = e
			}
		})
		lc.m.put("h5lite.read_extent_mb_per_s", float64(ext.Count()*4)/1e6/d.Seconds(), ext.Count()*4)
		if err != nil {
			return err
		}
		buf := make([]byte, 1<<20)
		d = timeMedian(10, func() {
			for off := int64(0); off < f.Size(); off += int64(len(buf)) {
				if _, e := f.ReadAt(buf, off); e != nil && off+int64(len(buf)) <= f.Size() {
					err = e
				}
			}
		})
		lc.m.put("vfile.readat_mb_per_s", float64(f.Size())/1e6/d.Seconds(), f.Size())
		return err
	}},
	{"halo", "Exchange", func(sz sizes) string {
		return fmt.Sprintf("%s, %d ranks, 1 ghost layer", cube(sz.renderN), frameRanks)
	}, func(lc *layerCtx) error {
		dims, p := grid.Cube(lc.cfg.sz.renderN), frameRanks
		dec := grid.NewDecomp(dims, p)
		own := make([]*volume.Field, p)
		for r := range own {
			own[r] = volume.NewField(dims, dec.BlockExtent(r))
		}
		var err error
		d := timeMedian(3, func() {
			_, _, e := worldTime(p, func(c *comm.Comm) error {
				_, err := halo.Exchange(c, dec, own[c.Rank()], 1)
				return err
			})
			if e != nil {
				err = e
			}
		})
		lc.m.put("halo.exchange_ms", ms(d), halo.Bytes(dec, 1))
		return err
	}},

	{"core", "RunReal with Trace / CritPath / Net set and unset; critpath.Analyze", func(sz sizes) string { return "48^3, 128^2, 8 ranks, generated" }, frameProbe},
	{"core", "RunModel", func(sz sizes) string { return fmt.Sprintf("%s raw, %d ranks", cube(paperN), sz.modelProcs) }, func(lc *layerCtx) error {
		s := paperScene()
		var err error
		d := timeMedian(3, func() {
			if _, e := core.RunModel(core.ModelConfig{Scene: s, Procs: lc.cfg.sz.modelProcs, Format: core.FormatRaw, Machine: lc.mach}); e != nil {
				err = e
			}
		})
		lc.m.put("core.run_model_ms", ms(d), 3)
		return err
	}},
	{"core", "CompositePhaseMessages", func(sz sizes) string { return fmt.Sprintf("%d ranks", sz.flowProcs) }, func(lc *layerCtx) error {
		var msgs []torus.Message
		d := timeMedian(5, func() { _, _, msgs = flowPhase(lc.cfg, lc.cfg.sz.flowProcs) })
		lc.m.put("core.phase_messages_ms", ms(d), int64(len(msgs)))
		return nil
	}},

	{"flowsim", "SimulateOpt (workers 1, 2) / SimulateTimed", func(sz sizes) string { return fmt.Sprintf("%d-rank direct-send exchange", sz.layerFlowProcs) }, func(lc *layerCtx) error {
		top, p, msgs := flowPhase(lc.cfg, lc.cfg.sz.layerFlowProcs)
		flows := int64(countFlows(msgs))
		var res flowsim.Result
		d := timeMedian(1, func() { res, _ = flowsim.SimulateOpt(top, p, msgs, flowsim.Options{Workers: 1}) })
		lc.m.put("flowsim.events", float64(res.Events), 0)
		lc.m.put("flowsim.events_per_s", float64(res.Events)/d.Seconds(), int64(res.Events))
		lc.m.put("flowsim.us_per_flow", us(d)/float64(flows), flows)
		d = timeMedian(1, func() { sink = flowsim.SimulateTimed(top, p, msgs, nil, nil) })
		lc.m.put("flowsim.timed_kernel_ms", ms(d), flows)
		d = timeMedian(1, func() { sink, _ = flowsim.SimulateOpt(top, p, msgs, flowsim.Options{Workers: 2}) })
		lc.m.put("flowsim.w2_ms", ms(d), flows)
		return nil
	}},

	{"torus", "Phase / Topology.Route", func(sz sizes) string {
		return fmt.Sprintf("%d-rank direct-send schedule; seeded node pairs", sz.scaleProcs)
	}, func(lc *layerCtx) error {
		sc := lc.scaleSchedule()
		d := timeMedian(2, func() { sink = torus.Phase(sc.top, lc.mach.Torus, sc.msgs, true) })
		lc.m.put("torus.phase_ms", ms(d), int64(len(sc.msgs)))
		pairs := make([][2]int, 1<<14)
		for i := range pairs {
			pairs[i] = [2]int{lc.rng.Intn(sc.top.Nodes()), lc.rng.Intn(sc.top.Nodes())}
		}
		hops := 0
		d = timeMedian(5, func() {
			for _, pr := range pairs {
				sc.top.Route(pr[0], pr[1], func(int) { hops++ })
			}
		})
		sink = hops
		lc.m.put("torus.route_ns", ns(d)/float64(len(pairs)), int64(len(pairs)))
		return nil
	}},
	{"pfs", "Params.ReadTimeParts", func(sz sizes) string { return "one collective read job" }, func(lc *layerCtx) error {
		st := pfs.NewBGPStorage()
		job := pfs.ReadJob{PhysicalBytes: 5 << 30, Accesses: 4096, Aggregators: 64, IONs: 64, Procs: 16384}
		const n = 10000
		d := timeMedian(5, func() {
			for i := 0; i < n; i++ {
				job.Accesses = 4096 + i
				sink = st.ReadTimeParts(job)
			}
		})
		lc.m.put("pfs.read_time_parts_us", us(d)/n, n)
		return nil
	}},
	{"bench", "Fig3..Fig7, Table2; fidelity.EvaluateData", func(sizes) string { return "paper scale" }, func(lc *layerCtx) error {
		names := map[string]string{
			"bench.Fig3": "bench.fig3_ms", "bench.Fig4": "bench.fig4_ms", "bench.Fig5": "bench.fig5_ms",
			"bench.Table2": "bench.table2_ms", "bench.Fig6": "bench.fig6_ms", "bench.Fig7": "bench.fig7_ms",
		}
		sc, err := evaluateSteps(lc.mach, func(name string, _ time.Time, d time.Duration) {
			if m, ok := names[name]; ok {
				lc.m.put(m, ms(d), 1)
			}
		})
		if err != nil {
			return err
		}
		pass, warn, _ := sc.Counts()
		lc.m.put("fidelity.pass", float64(pass), 0)
		lc.m.put("fidelity.warn", float64(warn), 0)
		lc.m.put("fidelity.score", sc.Score, int64(len(sc.Results)))
		return nil
	}},

	{"serve", "Handler().ServeHTTP: /render, /status, /metrics", func(sz sizes) string { return "serve-hot body on a recorder, no TCP" }, serveProbe},

	{"trace", "Rank.Begin/Add/End", func(sizes) string { return "tracer on and nil" }, func(lc *layerCtx) error {
		const n = 1 << 18
		loop := func(r *trace.Rank) func() {
			return func() {
				for i := 0; i < n; i++ {
					sp := r.Begin(trace.PhaseComm, "recv")
					r.Add(trace.CounterMessages, 1)
					sp.End()
				}
			}
		}
		lc.m.put("trace.span_off_ns", ns(timeMedian(3, loop(nil)))/n, n)
		// A fresh tracer per repetition, so the event log it grows does
		// not carry over.
		lc.m.put("trace.span_on_ns", ns(timeMedian(3, func() { loop(trace.New(1).Rank(0))() }))/n, n)
		return nil
	}},
	{"obs", "Counter.Inc", func(sizes) string { return "private registry" }, func(lc *layerCtx) error {
		const n = 1 << 22
		c := obs.NewRegistry().NewCounter("bench_probe_total", "benchmark probe")
		d := timeMedian(3, func() {
			for i := 0; i < n; i++ {
				c.Inc()
			}
		})
		lc.m.put("obs.counter_inc_ns", ns(d)/n, n)
		return nil
	}},
	{"par", "For / Gang.Run", func(sizes) string { return "2 workers, 64 no-op items" }, func(lc *layerCtx) error {
		const n = 1000
		lc.m.put("par.for_us", us(timeMedian(n, func() { par.For(2, 64, func(int) {}) })), n)
		g := par.NewGang(2)
		defer g.Close()
		lc.m.put("par.gang_round_us", us(timeMedian(n, func() { g.Run(func(int) {}) })), n)
		return nil
	}},
}

// frameProbe runs one small generated frame with each instrumentation
// hook set and unset. The plain frames also stand in for the workload's
// own stage medians on workloads that run no frame.
func frameProbe(lc *layerCtx) error {
	const procs = 8
	base := core.RealConfig{Scene: core.DefaultScene(48, 128), Procs: procs, Format: core.FormatGenerate}
	var lastTrace *trace.Tracer
	var lastRec *critpath.Recorder
	variants := []struct {
		metric string
		cfg    func() core.RealConfig
		durs   []float64
	}{
		{"", func() core.RealConfig { return base }, nil},
		{"trace.frame_overhead_ratio", func() core.RealConfig {
			c := base
			c.Trace = trace.New(procs)
			return c
		}, nil},
		{"critpath.frame_overhead_ratio", func() core.RealConfig {
			c := base
			c.Trace = trace.New(procs)
			c.CritPath = critpath.NewRecorder(c.Trace, 1<<12)
			lastTrace, lastRec = c.Trace, c.CritPath
			return c
		}, nil},
		{"telemetry.frame_overhead_ratio", func() core.RealConfig {
			c := base
			c.Net = &telemetry.NetTelemetry{}
			return c
		}, nil},
	}
	log := &frameLog{}
	for i := 0; i < probeFrames; i++ {
		for vi := range variants {
			v := &variants[vi]
			cfg := v.cfg()
			start := time.Now()
			res, err := core.RunReal(cfg)
			d := time.Since(start)
			if err != nil {
				return err
			}
			v.durs = append(v.durs, ms(d))
			if vi == 0 {
				log.add(res.Times, d)
			}
		}
	}
	log.emit(lc.m)
	plain := median(variants[0].durs)
	for _, v := range variants[1:] {
		lc.m.put(v.metric, median(v.durs)/plain, probeFrames)
	}
	var g *critpath.Graph
	d := timeMedian(3, func() {
		g = critpath.FromTrace(lastTrace, lastRec)
		sink = critpath.Analyze(g, 5)
	})
	lc.m.put("critpath.analyze_ms", ms(d), int64(g.NumNodes()))
	return nil
}

// serveProbe calls the service's handler directly. Its latencies stand
// in for the callers' on workloads that are not serve-*.
func serveProbe(lc *layerCtx) error {
	srv := newServer(lc.cfg)
	h := srv.Handler()
	body := renderBody(lc.cfg, 0)
	log := &serveLog{}
	const n = 25
	handler := make([]float64, 0, n)
	for i := 0; i <= n; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/render", bytes.NewReader(body))
		start := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(start)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("serve probe: POST /render status %d", rec.Code)
		}
		if i == 0 {
			continue // the cache fill
		}
		var rr renderReply
		if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
			return err
		}
		handler = append(handler, ms(d))
		log.add(d, rr.Times, rec.Body.Len())
	}
	log.emit(lc.m, srv.Status())
	lc.m.put("serve.handler_ms_p50", median(handler), n)
	for _, ep := range []struct{ metric, path string }{
		{"serve.status_us", "/status"}, {"serve.metrics_scrape_us", "/metrics"},
	} {
		var code int
		d := timeMedian(50, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, ep.path, nil))
			code = rec.Code
		})
		if code != http.StatusOK {
			return fmt.Errorf("serve probe: GET %s status %d", ep.path, code)
		}
		lc.m.put(ep.metric, us(d), 50)
	}
	return nil
}

// runLayerTable times every row and fills m. A row that cannot run is
// an error: its metrics would otherwise be silently missing.
func runLayerTable(cfg *config, m metrics, report func(row layerRow, d time.Duration)) error {
	lc := &layerCtx{cfg: cfg, m: m, rng: rand.New(rand.NewSource(cfg.seed)), mach: machine.NewBGP()}
	for _, row := range layerTable {
		runtime.GC()
		start := time.Now()
		if err := row.run(lc); err != nil {
			return fmt.Errorf("layer %s (%s): %w", row.layer, row.call, err)
		}
		report(row, time.Since(start))
	}
	return nil
}
