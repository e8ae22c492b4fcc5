package render

import (
	"math"

	"bgpvr/internal/geom"
	"bgpvr/internal/grid"
	"bgpvr/internal/img"
	"bgpvr/internal/obs"
	"bgpvr/internal/par"
	"bgpvr/internal/scratch"
	"bgpvr/internal/trace"
	"bgpvr/internal/volume"
)

// slop widens sampling intervals so samples landing exactly on a block
// boundary plane are never lost to rounding in the interval
// computation; the half-open ownership test (and the field's own
// bounds check) decide authoritatively which block accumulates each
// sample, applied by castPlan.trim to the ends of the widened interval.
const slop = 1e-6

// chunk is how many samples of a ray the cast interpolates before it
// classifies them. Interpolating a run at a time is what lets the
// processor overlap the samples; a longer run interpolates further past
// the sample an early-terminating ray stops at (32 made that cast a
// third slower, 8 leaves it level and the others as fast as 32).
const chunk = 8

// Config controls sampling.
type Config struct {
	// Step is the world-space distance between samples along a ray. All
	// processes must use the same value; samples sit at t = k*Step from
	// each ray's origin, which is what makes parallel and serial
	// rendering identical.
	Step float64
	// EarlyTerminationAlpha stops a ray once accumulated opacity
	// exceeds it. Zero disables early termination (required when the
	// result must match the composited parallel rendering exactly,
	// since blocks cannot terminate each other's rays).
	EarlyTerminationAlpha float64
	// Workers is the number of concurrent scanline-tile workers the
	// renderers use; 0 or 1 casts serially on the calling goroutine.
	// Parallel rendering is bit-identical to serial at every width:
	// rays are independent, tiles write disjoint pixel ranges, and
	// per-tile sample counts are folded in tile order.
	Workers int
	// Shade configures gradient (Lambertian) shading. All processes
	// must use identical parameters. Shading preserves the parallel ==
	// serial invariant *provided blocks carry two ghost layers*:
	// gradients probe gradStep past the sample, and samples sit up to
	// one interpolation cell from the block face, so probes reach up to
	// 1+gradStep lattice units outside the owned region.
	Shade Shading
}

// GhostLayersFor returns the halo width a configuration needs for exact
// block rendering: one layer for interpolation, two when shading
// gradients are on.
func GhostLayersFor(cfg Config) int {
	if cfg.Shade.Enabled {
		return 2
	}
	return 1
}

// Subimage is the partial image a process produces for its block: the
// rectangle of pixels its block projects to and their premultiplied
// accumulated color/opacity.
type Subimage struct {
	Rect img.Rect
	Pix  []img.RGBA // len == Rect.NumPixels(), row-major within Rect
	// Spans, when non-nil, bounds the non-transparent pixels of each row
	// of Rect, so that whoever scans the subimage (the fragment encoder)
	// skips what no ray hit. nil means every row may be active all along,
	// which is what a subimage built by hand has.
	Spans []RowSpan
	// Samples counts field samples taken; it drives the rendering cost
	// model and the load-imbalance analysis of Fig 3.
	Samples int64
}

// RowSpan is the half-open column range [Lo, Hi), relative to the
// subimage's Rect.X0, outside which a row's pixels are all transparent.
// An empty row has Lo == Hi.
type RowSpan struct{ Lo, Hi int32 }

// The renderers' frame-lifetime buffers come from the recycler
// (internal/scratch has the ownership rule): a subimage's pixels
// (img.Pixels) and spans, released by Subimage.Release, and a cast's
// column terms.
var (
	rowSpans = scratch.Pool[RowSpan]{Poison: RowSpan{Lo: -1, Hi: -1}}
	colTerms = scratch.Pool[geom.Vec3]{Poison: geom.V(math.NaN(), math.NaN(), math.NaN())}
)

// newSubimage takes a subimage for rect from the recycler. Its pixels
// and spans are unspecified until a cast has written every one.
func newSubimage(rect img.Rect) *Subimage {
	if rect.Empty() {
		return &Subimage{Rect: rect}
	}
	return &Subimage{Rect: rect, Pix: img.Pixels.Get(rect.NumPixels()), Spans: rowSpans.Get(rect.H())}
}

// Release recycles the subimage's pixels and spans; it must not be used
// again. The subimage's last consumer calls it — for a frame, whoever
// ran the compositor, once that has returned.
func (s *Subimage) Release() {
	img.Pixels.Put(s.Pix)
	rowSpans.Put(s.Spans)
	s.Pix, s.Spans = nil, nil
}

// At returns the pixel at absolute image coordinates (x, y), which must
// lie inside Rect.
func (s *Subimage) At(x, y int) img.RGBA {
	return s.Pix[(y-s.Rect.Y0)*s.Rect.W()+(x-s.Rect.X0)]
}

// ownedBounds returns the continuous sample-ownership box of an owned
// cell extent: points p with Lo <= p < Hi belong to the block. The
// sampleable limit of the whole volume is [0, dims-1]; the returned box
// is the extent's [Lo, Hi) corners (the half-open test happens in the
// cast's trim).
func ownedBounds(ext grid.Extent) geom.AABB {
	return geom.AABB{
		Min: geom.V(float64(ext.Lo.X), float64(ext.Lo.Y), float64(ext.Lo.Z)),
		Max: geom.V(float64(ext.Hi.X), float64(ext.Hi.Y), float64(ext.Hi.Z)),
	}
}

// ProjectedRect returns the image rectangle covered by an extent's
// bounds under the camera, expanded by one pixel of slack and clamped to
// the image. If any corner fails to project (behind a perspective eye),
// the full image rectangle is returned.
func ProjectedRect(cam Camera, ext grid.Extent) img.Rect {
	w, h := cam.Size()
	full := img.Rect{X0: 0, Y0: 0, X1: w, Y1: h}
	b := ownedBounds(ext)
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, c := range b.Corners() {
		px, py, ok := cam.Project(c)
		if !ok {
			return full
		}
		minX, maxX = math.Min(minX, px), math.Max(maxX, px)
		minY, maxY = math.Min(minY, py), math.Max(maxY, py)
	}
	r := img.Rect{
		X0: int(math.Floor(minX)) - 1, Y0: int(math.Floor(minY)) - 1,
		X1: int(math.Ceil(maxX)) + 1, Y1: int(math.Ceil(maxY)) + 1,
	}
	return r.Intersect(full)
}

// RenderBlock renders the partial image of one block. f must cover at
// least the block's owned extent plus one ghost layer (clamped at the
// volume boundary) so trilinear samples at owned positions are exact.
func RenderBlock(f *volume.Field, own grid.Extent, cam Camera, tf *volume.Transfer, cfg Config) *Subimage {
	return RenderBlockTraced(f, own, cam, tf, cfg, nil)
}

// RenderBlockTraced is RenderBlock with instrumentation: it wraps the
// block in a render-phase span and adds the block's sample count to the tracing handle's counter. A nil
// handle costs nothing.
func RenderBlockTraced(f *volume.Field, own grid.Extent, cam Camera, tf *volume.Transfer, cfg Config, tr *trace.Rank) *Subimage {
	sp := tr.Begin(trace.PhaseRender, "render-block")
	defer sp.End()
	rect := ProjectedRect(cam, own)
	sub := newSubimage(rect)
	if rect.Empty() {
		return sub
	}
	j := castJob{plan: newCastPlan([]*volume.Field{f}, &own, cfg), tf: tf,
		workers: cfg.Workers, cam: cam, box: ownedBounds(own), rect: rect,
		pix: sub.Pix, stride: rect.W(), spans: sub.Spans}
	sub.Samples = j.run()
	tr.Add(trace.CounterSamples, sub.Samples)
	return sub
}

// castPlan is everything a cast needs of its block that no ray and no
// sample changes, worked out once per block: the fields' samplers, the
// block's bounds per axis, the step, and the early-termination and
// shading state. Its trim then settles, per ray, which samples are the
// block's, so the loop over them tests neither ownership nor bounds.
type castPlan struct {
	vol  volume.Sampler
	more []volume.Sampler // the further fields of a multivariate cast
	// A sample at p is the block's when lo <= p < hi and p <= top on
	// every axis. lo is the highest of the owned extent's lower corner
	// and every field's first sampleable plane, hi the owned extent's
	// upper corner (half-open), and top the lowest of the global
	// sampleable limit dims-1 and every field's last plane (Ext.Hi-1, as
	// Sampler.Contains has it). A conjunction of lower bounds is one test
	// against their maximum, and likewise above, so folding them is exact.
	// A serial cast owns whatever its field can sample: hi is infinite.
	lo, hi, top [3]float64
	step        float64
	invStep     float64 // 1/step, for trim's starting guess only
	// term is the accumulated opacity that ends a ray; +Inf (never
	// reached) when early termination is off.
	term float64
	sh   *shader // nil: unshaded
}

func newCastPlan(fs []*volume.Field, own *grid.Extent, cfg Config) castPlan {
	f := fs[0]
	inf := math.Inf(1)
	sampleable := geom.V(float64(f.Dims.X-1), float64(f.Dims.Y-1), float64(f.Dims.Z-1))
	pl := castPlan{
		vol:  f.Sampler(),
		lo:   [3]float64{-inf, -inf, -inf},
		hi:   [3]float64{inf, inf, inf},
		top:  [3]float64{inf, inf, inf},
		step: cfg.Step, invStep: 1 / cfg.Step,
		term: inf,
		sh:   newShader(cfg.Shade, sampleable),
	}
	clip := func(lo, top geom.Vec3) {
		for a := range pl.lo {
			pl.lo[a], pl.top[a] = max(pl.lo[a], lo.Comp(a)), min(pl.top[a], top.Comp(a))
		}
	}
	for i, g := range fs {
		e := g.Ext
		clip(geom.V(float64(e.Lo.X), float64(e.Lo.Y), float64(e.Lo.Z)),
			geom.V(float64(e.Hi.X-1), float64(e.Hi.Y-1), float64(e.Hi.Z-1)))
		if i > 0 {
			pl.more = append(pl.more, g.Sampler())
		}
	}
	if own != nil {
		b := ownedBounds(*own)
		clip(b.Min, sampleable)
		pl.hi = [3]float64{b.Max.X, b.Max.Y, b.Max.Z}
	}
	if cfg.EarlyTerminationAlpha > 0 {
		pl.term = cfg.EarlyTerminationAlpha
	}
	return pl
}

// below and above are the two ways coordinate v on axis a can fail the
// block; a NaN fails both. Each is monotone in v — below holds on a
// prefix of the line, above on a suffix — which is what trim and the
// row window rest on.
func (pl *castPlan) below(a int, v float64) bool { return !(v >= pl.lo[a]) }
func (pl *castPlan) above(a int, v float64) bool { return !(v < pl.hi[a] && v <= pl.top[a]) }

// fails is below or above, chosen by a flag, and bound is where it
// changes: the plane a coordinate crosses to start or stop failing.
func (pl *castPlan) fails(a int, upper bool, v float64) bool {
	if upper {
		return pl.above(a, v)
	}
	return pl.below(a, v)
}

func (pl *castPlan) bound(a int, upper bool) float64 {
	if upper {
		return min(pl.hi[a], pl.top[a])
	}
	return pl.lo[a]
}

// at is a coordinate of sample k of a ray whose origin and direction
// have o and d on that axis: the component of ray.At(float64(k)*step),
// by the same operations on the same operands.
func (pl *castPlan) at(o, d float64, k int64) float64 { return o + d*(float64(k)*pl.step) }

// takes reports whether the sample at p is this block's to take: owned,
// and inside every field's bounds.
func (pl *castPlan) takes(p geom.Vec3) bool {
	return !pl.below(0, p.X) && !pl.above(0, p.X) &&
		!pl.below(1, p.Y) && !pl.above(1, p.Y) &&
		!pl.below(2, p.Z) && !pl.above(2, p.Z)
}

// trim returns the samples of ray over [t0, t1] that the block takes,
// as a range [k0, k1] of the global sample grid (samples sit at k*step
// from the ray origin; the range is empty when k0 > k1). The range is
// exact, not an estimate: each coordinate of ray.At(k*step) is monotone
// in k, in floating point as in the reals (k*step, the product with a
// fixed direction component and the sum with a fixed origin component
// are each monotone under rounding), and takes is a conjunction of
// per-coordinate interval tests, so the k it accepts form one contiguous
// run. Stepping the ends of a guess that contains the run inward until
// both pass therefore leaves exactly the samples a test of every k
// would keep; it costs two tests on a typical ray and nothing on an
// empty one. The guess is [t0, t1] widened by slop, in steps — by a
// product with 1/step, which is within 1e-16·t of the quotient where
// slop is 1e-6: the result does not depend on the guess, only on its
// containing the run.
func (pl *castPlan) trim(ray geom.Ray, t0, t1 float64) (k0, k1 int64) {
	k0, k1 = int64(math.Ceil((t0-slop)*pl.invStep)), int64(math.Floor((t1+slop)*pl.invStep))
	for k0 <= k1 && !pl.takes(ray.At(float64(k0)*pl.step)) {
		k0++
	}
	for k1 > k0 && !pl.takes(ray.At(float64(k1)*pl.step)) {
		k1--
	}
	return k0, k1
}

// kLimit bounds the sample indices a row window searches; float64(k)
// is exact up to it.
const kLimit = 1 << 53

// clampK is the least sample index at or above a continuous estimate,
// clamped to ±kLimit (a NaN estimate to -kLimit).
func clampK(k float64) int64 {
	if !(k > -kLimit) {
		return -kLimit
	}
	return int64(math.Ceil(min(k, kLimit)))
}

// least returns the least k in [lo, hi] at which in holds, or hi+1
// where it holds nowhere; in must fail up to some k and hold from it
// on. It tries guess first and gallops from there, so a guess off by
// one costs three calls and a wrong one a logarithm.
func least(lo, hi, guess int64, in func(int64) bool) int64 {
	guess = min(max(guess, lo), hi)
	a, b := lo, hi+1 // in fails below a and holds from b on
	if in(guess) {
		b = guess
		for step := int64(1); b-step >= a; step *= 2 {
			if !in(b - step) {
				a = b - step + 1
				break
			}
			b -= step
		}
	} else {
		a = guess + 1
		for step := int64(1); a+step-1 < b; step *= 2 {
			if in(a + step - 1) {
				b = a + step - 1
				break
			}
			a += step
		}
	}
	for a < b {
		if m := a + (b-a)/2; in(m) {
			b = m
		} else {
			a = m + 1
		}
	}
	return a
}

// tilesPerWorker oversubscribes the tile decomposition so the pool's
// dynamic cursor can balance cheap silhouette rows against full-depth
// rows; higher values balance better at the cost of more (tiny)
// per-tile bookkeeping.
const tilesPerWorker = 4

// castJob is one block's cast: the plan, the classification (tf, or
// cls for a multivariate cast), and which rays go where. run
// casts the job's rect into pix — serially, or over scanline tiles on
// workers goroutines. Rays are independent and every tile writes a
// disjoint row range of pix, so the pixels are bit-identical at any
// width; per-tile sample counts land in the tile's slot and are summed
// in tile order (an exact integer reduction), so Samples is too.
type castJob struct {
	plan    castPlan
	tf      *volume.Transfer
	cls     MultiClassifier // cls.tf non-nil: a multivariate cast
	workers int
	cam     Camera
	// Set by run when every ray shares one direction (an orthographic
	// camera): the camera's concrete type, so generating a ray is not an
	// interface call, the box prepared for that direction, and the terms
	// of Ortho.Ray's origin that do not change from pixel to pixel — one
	// per column of rect, and the one no pixel changes.
	ortho  *Ortho
	dirBox geom.DirBox
	cols   []geom.Vec3
	back   geom.Vec3
	// kA, kB bracket the samples any ray of rect can take, when that is
	// one sample or none (kA >= kB); otherwise they are -kLimit, kLimit
	// and each row searches its own.
	kA, kB int64
	box    geom.AABB
	rect   img.Rect
	pix    []img.RGBA
	stride int // row stride of pix
	// spans, when non-nil, receives each row's non-transparent column
	// range, indexed like the rows of rect.
	spans []RowSpan
}

// cast accumulates samples k0..k1 of ray front to back and returns the
// pixel and the samples taken. Every k in the range is the block's
// (trim), so each is sampled without a test. It is one walk over chunks
// of samples, whatever the configuration: a chunk is up to chunk
// consecutive samples, interpolated as a run and then classified and
// accumulated as a run,
// which is where shading recolours a sample and where early termination
// stops — inside the chunk, so that Samples counts what was accumulated
// and nothing interpolated past it. *seg is the transfer function's
// segment hint, which the caller carries from ray to ray: it changes
// where a lookup starts its search, never the segment it finds.
func (j *castJob) cast(ray geom.Ray, k0, k1 int64, seg *int) (img.RGBA, int64) {
	var acc img.RGBA
	var samples int64
	pl := &j.plan
	var vals [chunk]float64
	k := k0 // the chunk's first sample; shade sees it move
	var shade func(i int, s img.RGBA) img.RGBA
	if pl.sh != nil {
		shade = func(i int, s img.RGBA) img.RGBA {
			s.R, s.G, s.B = pl.sh.shade(&pl.vol, ray.At(float64(k+int64(i))*pl.step), s.R, s.G, s.B)
			return s
		}
	}
	for k <= k1 {
		n := int(min(k1-k+1, chunk))
		pl.vol.InterpRay(ray.Origin, ray.Dir, pl.step, k, vals[:n])
		var used int
		acc, used = j.tf.ClassifyOver(acc, vals[:n], pl.step, pl.term, seg, shade)
		samples += int64(used)
		if float64(acc.A) >= pl.term {
			break
		}
		k += int64(n)
	}
	return acc, samples
}

// castRows casts scanlines [y0, y1) of the job's rect (absolute image
// coordinates) and returns the samples taken. An orthographic row casts
// only its window's columns and stores the transparent pixel in the
// rest. Neighbouring rays mostly sample the same segment of the transfer
// function, so one segment hint serves every ray of the call.
func (j *castJob) castRows(y0, y1 int) int64 {
	var samples int64
	var seg int
	var runs [][chunk]float64 // castMulti's scratch, one per tile: a chunk of each classified field
	if j.cls.tf != nil {
		runs = make([][chunk]float64, min(1+len(j.plan.more), 2))
	}
	var rayBox geom.DirBox
	dirBox := &rayBox
	if j.ortho != nil {
		dirBox = &j.dirBox
	}
	for y := y0; y < y1; y++ {
		row := j.pix[(y-j.rect.Y0)*j.stride:][:j.rect.W()]
		var ray geom.Ray
		var rowTerm geom.Vec3
		xa, xb := j.rect.X0, j.rect.X1
		if j.ortho != nil {
			ray.Dir, rowTerm = j.ortho.basis.fwd, j.ortho.rowTerm(float64(y)+0.5)
			xa, xb, _, _ = j.window(rowTerm)
		}
		// pix may be recycled memory: a ray that misses, or hits and has
		// no sample to take, stores its transparent pixel like any other.
		clear(row[:xa-j.rect.X0])
		clear(row[xb-j.rect.X0:])
		lo, hi := 0, 0 // the row's span so far; hi == 0 while no pixel is active
		for x := xa; x < xb; x++ {
			if j.ortho != nil {
				ray.Origin = j.orthoOrigin(x, rowTerm)
			} else {
				// A perspective ray prepares its own box, in the tile's
				// variable: the job is shared by every tile.
				ray = j.cam.Ray(float64(x)+0.5, float64(y)+0.5)
				rayBox = j.box.ForDir(ray.Dir)
			}
			var px img.RGBA
			if t0, t1, ok := dirBox.Intersect(ray.Origin); ok {
				if k0, k1 := j.plan.trim(ray, t0, t1); k0 <= k1 {
					var n int64
					if j.cls.tf != nil {
						px, n = j.castMulti(ray, k0, k1, runs, &seg)
					} else {
						px, n = j.cast(ray, k0, k1, &seg)
					}
					samples += n
					if px != (img.RGBA{}) {
						if hi == 0 {
							lo = x - j.rect.X0
						}
						hi = x - j.rect.X0 + 1
					}
				}
			}
			row[x-j.rect.X0] = px
		}
		if j.spans != nil {
			j.spans[y-j.rect.Y0] = RowSpan{Lo: int32(lo), Hi: int32(hi)}
		}
	}
	renderPhase.Add(int64(y1 - y0)) // one atomic add a tile, not a row: rows can be cheap
	return samples
}

// bracket returns the samples [kA, kB] outside which no ray of the
// job whose origin lies between the given end origins takes one: two,
// the ends of a row, or four, the corners of the rect. Each coordinate
// of a sample is monotone in k, in the column and in the row (DESIGN.md,
// "The ray-casting kernel"), so for a fixed k every such ray's
// coordinate lies between the ends' ones, and below and above are
// monotone in the coordinate: on every axis the samples at which all
// ends fail the same way fail for every ray, and they are a prefix and a
// suffix of the ks. A bound that is not found within ±kLimit stays at
// -kLimit or kLimit; the search stops at the first axis that empties
// the bracket.
func (j *castJob) bracket(ends []geom.Vec3) (kA, kB int64) {
	pl, fwd := &j.plan, j.ortho.basis.fwd
	kA, kB = -kLimit, kLimit
	for a := 0; a < 3 && kA <= kB; a++ {
		d := fwd.Comp(a)
		if d == 0 {
			continue // the ends' columns and rows decide this axis alone
		}
		// The coordinate crosses the block's lower plane and then its
		// upper one as k rises, or the reverse: all ends fail the same
		// way before the samples they may take and after them.
		rising := d > 0
		all := func(upper bool, k int64) bool {
			for _, o := range ends {
				if !pl.fails(a, upper, pl.at(o.Comp(a), d, k)) {
					return false
				}
			}
			return true
		}
		// cross is where the first and the last end cross a bound.
		cross := func(upper bool) (first, last float64) {
			b := pl.bound(a, upper)
			first, last = math.Inf(1), math.Inf(-1)
			for _, o := range ends {
				c := (b - o.Comp(a)) / (d * pl.step)
				first, last = min(first, c), max(last, c)
			}
			return first, last
		}
		first, _ := cross(!rising)
		if k := least(-kLimit, kLimit, clampK(first), func(k int64) bool { return !all(!rising, k) }); k > -kLimit {
			kA = max(kA, k)
		}
		_, last := cross(rising)
		if k := least(-kLimit, kLimit, clampK(last), func(k int64) bool { return all(rising, k) }) - 1; k < kLimit {
			kB = min(kB, k)
		}
	}
	return kA, kB
}

// window returns the sample window of the row whose ray origins share
// rowTerm: the samples [kA, kB] outside which no ray of the row takes
// one, and the columns [xa, xb) outside which no ray takes any. When kA
// == kB the columns are exactly those whose ray takes sample kA. The
// samples are the rect's when it has one or none (setOrtho), else the
// row's own bracket. The columns that fail the same way on an axis at
// both kA and kB — and so at every k between — are a prefix or a suffix
// of the row, since each coordinate is monotone in the column.
func (j *castJob) window(rowTerm geom.Vec3) (xa, xb int, kA, kB int64) {
	pl, fwd := &j.plan, j.ortho.basis.fwd
	x0, x1 := j.rect.X0, j.rect.X1-1 // the row's end columns
	if kA, kB = j.kA, j.kB; kA < kB {
		kA, kB = j.bracket([]geom.Vec3{j.orthoOrigin(x0, rowTerm), j.orthoOrigin(x1, rowTerm)})
	}
	if kA > kB {
		return x0, x0, kA, kB
	}
	if kA == -kLimit || kB == kLimit {
		return x0, x1 + 1, kA, kB // a bound out of reach: no window
	}
	xa, xb = x0, x1+1
	for a := 0; a < 3; a++ {
		d := fwd.Comp(a)
		// at is coordinate a of column x's ray at sample k.
		at := func(x int, k int64) float64 { return pl.at(j.origin(x, rowTerm, a), d, k) }
		for _, upper := range [2]bool{false, true} {
			out := func(x int64) bool {
				return pl.fails(a, upper, at(int(x), kA)) && pl.fails(a, upper, at(int(x), kB))
			}
			outL, outR := out(int64(x0)), out(int64(x1))
			if outL == outR {
				if outL {
					return x0, x0, kA, kB
				}
				continue
			}
			// Where the row's coordinate at kA meets the bound, by
			// interpolation between the ends.
			vL, vR := at(x0, kA), at(x1, kA)
			guess := float64(x0) + (pl.bound(a, upper)-vL)/(vR-vL)*float64(x1-x0)
			if outL {
				xa = max(xa, int(least(int64(x0), int64(x1), clampK(guess), func(x int64) bool { return !out(x) })))
			} else {
				xb = min(xb, int(least(int64(x0), int64(x1), clampK(guess), out)))
			}
		}
	}
	return xa, max(xa, xb), kA, kB
}

// renderPhase feeds the -progress heartbeat: sessions overlap across
// per-rank RenderBlock calls, so totals accumulate over the whole
// frame's blocks.
var renderPhase = obs.GetPhase("render")

// setOrtho prepares the job for rays that share o's direction: the
// column terms of rect's pixel centers come from the recycler, and the
// caller releases j.cols when the cast is done. It also brackets the
// samples of the whole rect by its four corner rays; a bracket of one
// sample or none is every row's, and any other is left to the rows.
func (j *castJob) setOrtho(o *Ortho) {
	j.ortho, j.dirBox = o, j.box.ForDir(o.basis.fwd)
	j.cols, j.back = colTerms.Get(j.rect.W()), o.backTerm()
	for i := range j.cols {
		j.cols[i] = o.colTerm(float64(j.rect.X0+i) + 0.5)
	}
	j.kA, j.kB = -kLimit, kLimit
	if kA, kB := j.rectBracket(); kA >= kB {
		j.kA, j.kB = kA, kB
	}
}

// rectBracket is bracket over the rays of the rect's four corner pixels:
// a coordinate monotone in the column and in the row lies between the
// corners' ones. An empty rect has no rays, and no bracket.
func (j *castJob) rectBracket() (kA, kB int64) {
	if j.rect.Empty() {
		return -kLimit, kLimit
	}
	x0, x1 := j.rect.X0, j.rect.X1-1
	top, bottom := j.ortho.rowTerm(float64(j.rect.Y0)+0.5), j.ortho.rowTerm(float64(j.rect.Y1-1)+0.5)
	return j.bracket([]geom.Vec3{j.orthoOrigin(x0, top), j.orthoOrigin(x1, top),
		j.orthoOrigin(x0, bottom), j.orthoOrigin(x1, bottom)})
}

// orthoOrigin is Ortho.Ray(x+0.5, y+0.5).Origin, given row y's term:
// the same three terms added in the same order, so the same bits.
func (j *castJob) orthoOrigin(x int, rowTerm geom.Vec3) geom.Vec3 {
	return j.cols[x-j.rect.X0].Add(rowTerm).Sub(j.back)
}

// origin is coordinate a of orthoOrigin(x, rowTerm), by the same two
// operations on the same operands.
func (j *castJob) origin(x int, rowTerm geom.Vec3, a int) float64 {
	return j.cols[x-j.rect.X0].Comp(a) + rowTerm.Comp(a) - j.back.Comp(a)
}

func (j *castJob) run() int64 {
	if o, ok := j.cam.(*Ortho); ok {
		j.setOrtho(o)
		defer colTerms.Put(j.cols)
	}
	rows := j.rect.Y1 - j.rect.Y0
	renderPhase.Start(int64(rows))
	defer renderPhase.End()
	w := j.workers
	if w > rows {
		w = rows
	}
	if w <= 1 {
		// A tile at a time still, so that -progress advances within the
		// cast: castRows ticks once a call.
		var samples int64
		for y, n := j.rect.Y0, (rows+tilesPerWorker-1)/tilesPerWorker; y < j.rect.Y1; y += n {
			samples += j.castRows(y, min(y+n, j.rect.Y1))
		}
		return samples
	}
	tiles := par.Tiles(rows, tilesPerWorker*w)
	counts := make([]int64, len(tiles))
	par.For(w, len(tiles), func(ti int) {
		t := tiles[ti]
		counts[ti] = j.castRows(j.rect.Y0+t.Lo, j.rect.Y0+t.Hi)
	})
	var samples int64
	for _, n := range counts {
		samples += n
	}
	return samples
}

// RenderFull renders the whole volume serially — the reference the
// parallel pipeline is tested against, and the renderer used by the
// single-process examples.
func RenderFull(f *volume.Field, cam Camera, tf *volume.Transfer, cfg Config) (*img.Image, int64) {
	w, h := cam.Size()
	out := img.New(w, h)
	j := castJob{plan: newCastPlan([]*volume.Field{f}, nil, cfg), tf: tf,
		workers: cfg.Workers, cam: cam, box: f.Bounds(),
		rect: img.Rect{X0: 0, Y0: 0, X1: w, Y1: h}, pix: out.Pix, stride: w}
	return out, j.run()
}
