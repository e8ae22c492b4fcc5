package render

import (
	"math/rand"
	"testing"

	"bgpvr/internal/geom"
	"bgpvr/internal/grid"
	"bgpvr/internal/img"
	"bgpvr/internal/volume"
)

// referenceCast is castJob.cast as it stood before a ray was sampled a
// chunk at a time: one loop over k that tests the mask, interpolates,
// classifies, shades and accumulates one sample. at, when non-nil,
// hears what happened to each k.
func referenceCast(j *castJob, ray geom.Ray, k0, k1 int64, at func(k int64, visible, stopped bool)) (img.RGBA, int64) {
	var acc img.RGBA
	var samples int64
	pl := &j.plan
	for k := k0; k <= k1; k++ {
		p := ray.At(float64(k) * pl.step)
		if j.mask != nil && !j.mask.Visible(p) {
			if at != nil {
				at(k, false, false)
			}
			continue
		}
		samples++
		s := j.tf.Classify(pl.vol.Interp(p), pl.step)
		stopped := false
		if !(s.A == 0 && s.R == 0 && s.G == 0 && s.B == 0) {
			if pl.sh != nil {
				s.R, s.G, s.B = pl.sh.shade(&pl.vol, p, s.R, s.G, s.B)
			}
			acc = img.Over(acc, s)
			stopped = float64(acc.A) >= pl.term
		}
		if at != nil {
			at(k, true, stopped)
		}
		if stopped {
			break
		}
	}
	return acc, samples
}

func sameCast(t *testing.T, j *castJob, ray geom.Ray, k0, k1 int64, what string) {
	t.Helper()
	want, wantN := referenceCast(j, ray, k0, k1, nil)
	got, n := j.cast(ray, k0, k1)
	if got != want || n != wantN {
		t.Fatalf("%s ray %+v samples [%d, %d]: cast (%+v, %d), per-sample loop (%+v, %d)", what, ray, k0, k1, got, n, want, wantN)
	}
}

// The chunk walk is the per-sample loop, pixel bits and sample count,
// for every combination of mask, shading and early termination, on rays
// of every length around one and two chunks.
func TestCastMatchesPerSampleLoop(t *testing.T) {
	dims := grid.Cube(24)
	f := volume.Supernova{Seed: 7, Time: 0.9}.GenerateFull(volume.VarVelocityX, dims)
	tf := volume.SupernovaTransfer()
	rng := rand.New(rand.NewSource(24))
	box := f.Bounds()
	var casts, stoppedOnChunkEdge, stoppedInside, hidden int
	for _, step := range []float64{1, 0.5, 0.3} {
		for _, masked := range []bool{false, true} {
			for _, shaded := range []bool{false, true} {
				for _, term := range []float64{0, 0.3, 0.6, 0.9} {
					cfg := Config{Step: step, EarlyTerminationAlpha: term, Shade: Shading{Enabled: shaded}}
					j := castJob{plan: newCastPlan([]*volume.Field{f}, nil, cfg), tf: tf}
					if masked {
						// A mask of random cells: what it hides need not be
						// transparent for the walk to have to agree with
						// the loop about it.
						j.mask = BuildOpacityMask(BuildMinMax(f, 2), tf)
						for i := range j.mask.visible {
							j.mask.visible[i] = rng.Intn(3) > 0
						}
					}
					for i := 0; i < 60; i++ {
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
							sameCast(t, &j, ray, k0, k0+n-1, "random")
							casts++
							referenceCast(&j, ray, k0, k0+n-1, func(k int64, visible, stopped bool) {
								switch {
								case !visible:
									hidden++
								case stopped && !masked && (k-k0)%chunk == chunk-1:
									stoppedOnChunkEdge++
								case stopped:
									stoppedInside++
								}
							})
						}
					}
				}
			}
		}
	}
	if casts < 5000 || stoppedOnChunkEdge < 20 || stoppedInside < 200 || hidden < 1000 {
		t.Errorf("%d casts, %d stopped on a chunk's last sample, %d inside one, %d hidden samples: the test needs all of them",
			casts, stoppedOnChunkEdge, stoppedInside, hidden)
	}
}

// A ray along x at step 0.5 through macrocells of 4 takes 8 samples a
// cell; with every other cell hidden, each visible run is exactly one
// chunk when the cast starts on a cell boundary, and ends mid-chunk when
// it starts anywhere else.
func TestCastMaskRunEndsOnChunkEdge(t *testing.T) {
	dims := grid.Cube(24)
	f := volume.Supernova{Seed: 7, Time: 0.9}.GenerateFull(volume.VarVelocityX, dims)
	tf := volume.SupernovaTransfer()
	j := castJob{plan: newCastPlan([]*volume.Field{f}, nil, Config{Step: 0.5}), tf: tf,
		mask: BuildOpacityMask(BuildMinMax(f, 4), tf)}
	g := j.mask.g
	for cz := 0; cz < g.nz; cz++ {
		for cy := 0; cy < g.ny; cy++ {
			for cx := 0; cx < g.nx; cx++ {
				j.mask.visible[(cz*g.ny+cy)*g.nx+cx] = cx%2 == 0
			}
		}
	}
	ray := geom.Ray{Origin: geom.V(-10, 9.25, 13.5), Dir: geom.V(1, 0, 0)}
	first, last := int64(20), int64(20+2*23) // x = 0 .. 23
	if _, n := referenceCast(&j, ray, first, last, nil); n != 3*chunk {
		t.Fatalf("reference took %d samples, want the three visible cells' %d", n, 3*chunk)
	}
	for k0 := first; k0 <= first+2*chunk; k0++ {
		for k1 := k0; k1 <= last; k1++ {
			sameCast(t, &j, ray, k0, k1, "alternating cells")
		}
	}
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
