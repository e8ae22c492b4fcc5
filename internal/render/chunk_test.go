package render

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"bgpvr/internal/geom"
	"bgpvr/internal/grid"
	"bgpvr/internal/img"
	"bgpvr/internal/volume"
)

// referenceCast is castJob.cast as it stood before a ray was sampled a
// chunk at a time: one loop over k that interpolates, classifies, shades
// and accumulates one sample (referenceSample), and stops after the
// sample that brings the opacity to 1. stop, when non-nil, hears the k
// the ray stops at.
func referenceCast(j *castJob, f *volume.Field, ray geom.Ray, k0, k1 int64, stop func(k int64)) (img.RGBA, int64) {
	var acc img.RGBA
	var samples int64
	for k := k0; k <= k1; k++ {
		samples++
		if s := referenceSample(j, f, ray, k); s != (img.RGBA{}) {
			if acc = img.Over(acc, s); acc.A >= 1 {
				if stop != nil {
					stop(k)
				}
				break
			}
		}
	}
	return acc, samples
}

// referenceSample is sample k of ray as the per-sample loop takes it: it
// interpolates f, the field j's plan samples, and classifies by Lookup
// with the per-sample bodies below, not by the loops under test, and
// shades what is not transparent.
func referenceSample(j *castJob, f *volume.Field, ray geom.Ray, k int64) img.RGBA {
	pl := &j.plan
	p := ray.At(float64(k) * pl.step)
	s := referenceClassify(j.tf, referenceInterp(f, p), pl.step)
	if s != (img.RGBA{}) && pl.sh != nil {
		s.R, s.G, s.B = pl.sh.shade(&pl.vol, p, s.R, s.G, s.B)
	}
	return s
}

// referenceInterp is the trilinear body as Sampler.Interp had it before
// InterpRay took it over, on the field's own indexing: the base cell
// clamped into the extent, its +1 neighbours (the cell itself on a
// single-plane axis) and the seven lerps in their order. p lies inside f.
func referenceInterp(f *volume.Field, p geom.Vec3) float64 {
	lo, hi := f.Ext.Lo, f.Ext.Hi
	x0, y0, z0 := max(min(int(p.X), hi.X-2), lo.X), max(min(int(p.Y), hi.Y-2), lo.Y), max(min(int(p.Z), hi.Z-2), lo.Z)
	x1, y1, z1 := min(x0+1, hi.X-1), min(y0+1, hi.Y-1), min(z0+1, hi.Z-1)
	wx, wy, wz := p.X-float64(x0), p.Y-float64(y0), p.Z-float64(z0)
	c000, c100 := float64(f.At(x0, y0, z0)), float64(f.At(x1, y0, z0))
	c010, c110 := float64(f.At(x0, y1, z0)), float64(f.At(x1, y1, z0))
	c001, c101 := float64(f.At(x0, y0, z1)), float64(f.At(x1, y0, z1))
	c011, c111 := float64(f.At(x0, y1, z1)), float64(f.At(x1, y1, z1))
	c00 := c000*(1-wx) + c100*wx
	c10 := c010*(1-wx) + c110*wx
	c01 := c001*(1-wx) + c101*wx
	c11 := c011*(1-wx) + c111*wx
	c0 := c00*(1-wy) + c10*wy
	c1 := c01*(1-wy) + c11*wy
	return c0*(1-wz) + c1*wz
}

// referenceClassify is Transfer.Classify as it stood before ClassifyOver
// took over its tail: Lookup (pinned to a binary search in its own
// package), the opacity correction by math.Pow, and the premultiply.
func referenceClassify(tf *volume.Transfer, v, ds float64) img.RGBA {
	r, g, b, a := tf.Lookup(v)
	if a <= 0 {
		return img.RGBA{}
	}
	a = 1 - math.Pow(1-min(a, 1), ds)
	return img.RGBA{R: float32(r * a), G: float32(g * a), B: float32(b * a), A: float32(a)}
}

// sameCast checks one cast against referenceCast; seg is the segment
// hint the caller carries from ray to ray, as castRows does.
func sameCast(t *testing.T, j *castJob, f *volume.Field, seg *int, ray geom.Ray, k0, k1 int64, what string) {
	t.Helper()
	want, wantN := referenceCast(j, f, ray, k0, k1, nil)
	got, n := j.cast(ray, k0, k1, seg)
	if !samePixel(got, want) || n != wantN {
		t.Fatalf("%s ray %+v samples [%d, %d]: cast (%+v, %d), per-sample loop (%+v, %d)", what, ray, k0, k1, got, n, want, wantN)
	}
}

// opaqueTransfer is SupernovaTransfer with its outer segments made
// opaque: a value there classifies to opacity 1 at any step, which brings
// a ray's accumulated opacity to exactly 1, so a ray stops wherever it
// first meets one.
func opaqueTransfer() *volume.Transfer {
	return volume.NewTransfer(
		volume.TransferPoint{V: 0.00, R: 0.05, G: 0.15, B: 0.85, A: 1},
		volume.TransferPoint{V: 0.30, R: 0.15, G: 0.45, B: 0.95, A: 1},
		volume.TransferPoint{V: 0.45, R: 0.60, G: 0.80, B: 1.00, A: 0.02},
		volume.TransferPoint{V: 0.50, R: 1.00, G: 1.00, B: 1.00, A: 0.00},
		volume.TransferPoint{V: 0.55, R: 1.00, G: 0.90, B: 0.55, A: 0.02},
		volume.TransferPoint{V: 0.70, R: 1.00, G: 0.55, B: 0.10, A: 1},
		volume.TransferPoint{V: 1.00, R: 0.95, G: 0.10, B: 0.05, A: 1},
	)
}

// stopCounts tallies where casts stopped: by the place in its chunk of
// the sample that brought the opacity to 1, or not at all.
type stopCounts struct {
	at     [chunk]int
	ranOut int
}

func (c *stopCounts) check(t *testing.T, casts, minCasts, minEach int) {
	t.Helper()
	if casts < minCasts || c.ranOut < minEach || slices.Min(c.at[:]) < minEach {
		t.Errorf("%d casts; stops at each place in a chunk %v, none %d: the test needs %d casts and %d of each",
			casts, c.at, c.ranOut, minCasts, minEach)
	}
}

// The chunk walk is the per-sample loop, pixel bits and sample count,
// shaded and unshaded, on rays of every length around one and two
// chunks, through a transfer function under which few rays reach opacity
// 1 and one under which rays stop at each place in a chunk.
func TestCastMatchesPerSampleLoop(t *testing.T) {
	dims := grid.Cube(24)
	f := volume.Supernova{Seed: 7, Time: 0.9}.GenerateFull(volume.VarVelocityX, dims)
	rng := rand.New(rand.NewSource(24))
	box := f.Bounds()
	var casts int
	var stops stopCounts
	for _, tf := range []*volume.Transfer{volume.SupernovaTransfer(), opaqueTransfer()} {
		var seg int // every cast's hint for this transfer function
		for _, step := range []float64{1, 0.5, 0.3} {
			for _, shaded := range []bool{false, true} {
				cfg := Config{Step: step, Shade: Shading{Enabled: shaded}}
				j := castJob{plan: newCastPlan([]*volume.Field{f}, nil, cfg), tf: tf}
				for i := 0; i < 120; i++ {
					dir := geom.V(rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1).Norm()
					in := geom.V(23*rng.Float64(), 23*rng.Float64(), 23*rng.Float64())
					ray := geom.Ray{Origin: in.Sub(dir.Mul(30)), Dir: dir}
					t0, t1, ok := box.RayIntersect(ray)
					if !ok {
						continue
					}
					k0, k1 := j.plan.trim(ray, t0, t1)
					for _, n := range []int64{0, 1, 7, 8, 9, 16, 17, k1 - k0 + 1} {
						if n > k1-k0+1 {
							continue
						}
						sameCast(t, &j, f, &seg, ray, k0, k0+n-1, "random")
						casts++
						stopped := false
						referenceCast(&j, f, ray, k0, k0+n-1, func(k int64) {
							stops.at[(k-k0)%chunk]++
							stopped = true
						})
						if !stopped {
							stops.ranOut++
						}
					}
				}
			}
		}
	}
	stops.check(t, casts, 10000, 50)
}

// trim's range on every ray of the golden scenes — whole volume and each
// of eight blocks — is the one a test of every sample gives, at the
// scenes' own steps and at two that do not divide anything.
func TestTrimOnGoldenScenes(t *testing.T) {
	for _, sc := range goldenScenes {
		dims := sc.dims()
		cam := sc.cam(sc.n, sc.w, sc.h)
		d := grid.NewDecomp(dims, 8)
		type block struct {
			own *grid.Extent
			f   *volume.Field
		}
		blocks := []block{{f: volume.NewField(dims, grid.WholeGrid(dims))}}
		for r := 0; r < d.NumBlocks(); r++ {
			own := d.BlockExtent(r)
			blocks = append(blocks, block{own: &own, f: volume.NewField(dims, d.GhostExtent(r, 1))})
		}
		var withSamples int64
		for _, b := range blocks {
			box, rect := b.f.Bounds(), img.Rect{X1: sc.w, Y1: sc.h}
			if b.own != nil {
				box, rect = ownedBounds(*b.own), ProjectedRect(cam, *b.own)
			}
			for _, step := range []float64{sc.cfg.Step, 1.0 / 3, 0.9} {
				for y := rect.Y0; y < rect.Y1; y++ {
					for x := rect.X0; x < rect.X1; x++ {
						if checkTrim(t, b.f, b.own, box, step, cam.Ray(float64(x)+0.5, float64(y)+0.5)) > 0 {
							withSamples++
						}
					}
				}
			}
		}
		if withSamples < 500 {
			t.Errorf("%s: %d rays with samples; the test is not testing", sc.name, withSamples)
		}
	}
}

// The multivariate cast interpolates a chunk a field at a time and
// classifies it with ClassifyOver; it is the per-sample loop it replaced
// — both fields interpolated at Ray.At(k·step) by the reference body,
// classified by the reference classification, modulated, skipped when
// transparent, accumulated, stopped after the sample that brings the
// opacity to 1 — pixel bits and sample count, on rays of every length
// around one and two chunks, with the hint carried from ray to ray, and
// with stops at each place in a chunk.
func TestCastMultiMatchesPerSampleLoop(t *testing.T) {
	dims := grid.Cube(24)
	sn := volume.Supernova{Seed: 7, Time: 0.9}
	fs := []*volume.Field{sn.GenerateFull(volume.VarVelocityX, dims), sn.GenerateFull(volume.VarDensity, dims)}
	rng := rand.New(rand.NewSource(25))
	runs := make([][chunk]float64, len(fs))
	var casts, erased int
	var stops stopCounts
	// The second classification saturates from a density of 0.3, so its
	// opaque samples keep opacity 1 where the density is high.
	for _, cls := range []MultiClassifier{ModulatedClassifier(volume.SupernovaTransfer(), 0.2, 0.7), ModulatedClassifier(opaqueTransfer(), 0.2, 0.3)} {
		var seg int
		for _, step := range []float64{1, 0.3} {
			j := castJob{plan: newCastPlan(fs, nil, Config{Step: step}), cls: cls}
			for i := 0; i < 400; i++ {
				dir := geom.V(rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1).Norm()
				ray := geom.Ray{Origin: geom.V(23*rng.Float64(), 23*rng.Float64(), 23*rng.Float64()).Sub(dir.Mul(30)), Dir: dir}
				t0, t1, ok := fs[0].Bounds().RayIntersect(ray)
				if !ok {
					continue
				}
				k0, k1 := j.plan.trim(ray, t0, t1)
				for _, n := range []int64{1, 7, 8, 9, 16, 17, k1 - k0 + 1} {
					if n > k1-k0+1 {
						continue
					}
					var want img.RGBA
					var wantN int64
					stopped := false
					for k := k0; k < k0+n; k++ {
						p := ray.At(float64(k) * step)
						wantN++
						w := (referenceInterp(fs[1], p) - cls.lo) / (cls.hi - cls.lo)
						if !(w > 0) {
							erased++
							continue
						}
						w = min(w, 1)
						s := referenceClassify(cls.tf, referenceInterp(fs[0], p), step)
						s = img.RGBA{R: s.R * float32(w), G: s.G * float32(w), B: s.B * float32(w), A: s.A * float32(w)}
						if s == (img.RGBA{}) {
							continue
						}
						if want = img.Over(want, s); want.A >= 1 {
							stops.at[(k-k0)%chunk]++
							stopped = true
							break
						}
					}
					if !stopped {
						stops.ranOut++
					}
					got, gotN := j.castMulti(ray, k0, k0+n-1, runs, &seg)
					if !samePixel(got, want) || gotN != wantN {
						t.Fatalf("step %v ray %+v samples [%d, %d]: castMulti (%+v, %d), per-sample loop (%+v, %d)",
							step, ray, k0, k0+n-1, got, gotN, want, wantN)
					}
					casts++
				}
			}
		}
	}
	stops.check(t, casts, 1000, 20)
	if erased < 1000 {
		t.Errorf("%d samples erased: the test is not testing", erased)
	}
}
