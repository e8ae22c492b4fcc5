package render

import (
	"math"
	"math/rand"
	"testing"

	"bgpvr/internal/geom"
	"bgpvr/internal/grid"
	"bgpvr/internal/volume"
)

// referenceTakes is the per-sample test the cast loop ran before the
// trim: half-open ownership clipped to the sampleable region (own nil:
// a serial cast, no ownership), then the field's own bounds.
func referenceTakes(f *volume.Field, own *grid.Extent, p geom.Vec3) bool {
	if own != nil {
		if p.X < float64(own.Lo.X) || p.X >= float64(own.Hi.X) ||
			p.Y < float64(own.Lo.Y) || p.Y >= float64(own.Hi.Y) ||
			p.Z < float64(own.Lo.Z) || p.Z >= float64(own.Hi.Z) {
			return false
		}
		if !(p.X <= float64(f.Dims.X-1) && p.Y <= float64(f.Dims.Y-1) && p.Z <= float64(f.Dims.Z-1)) {
			return false
		}
	}
	_, ok := f.Sample(p)
	return ok
}

// checkTrim compares trim's range with a test of every k of the
// slop-widened interval, and returns how many samples the ray has.
func checkTrim(t *testing.T, f *volume.Field, own *grid.Extent, box geom.AABB, step float64, ray geom.Ray) int64 {
	t.Helper()
	t0, t1, ok := box.RayIntersect(ray)
	if !ok {
		return 0
	}
	pl := newCastPlan([]*volume.Field{f}, own, Config{Step: step})
	k0, k1 := pl.trim(ray, t0, t1)
	// The slop-widened interval in steps, by division: the reference
	// tests every k of it, so it does not matter that trim guesses with a
	// reciprocal.
	w0, w1 := int64(math.Ceil((t0-slop)/step)), int64(math.Floor((t1+slop)/step))
	var n int64
	first, last := int64(0), int64(-1)
	for k := w0; k <= w1; k++ {
		if referenceTakes(f, own, ray.At(float64(k)*step)) {
			if n == 0 {
				first = k
			}
			last = k
			n++
		}
	}
	if n > 0 && last-first+1 != n {
		t.Fatalf("ray %+v own %v step %v: taken samples are not contiguous (%d in [%d, %d])", ray, own, step, n, first, last)
	}
	if n == 0 {
		if k0 <= k1 {
			t.Fatalf("ray %+v own %v step %v: trim [%d, %d], every sample of [%d, %d] fails the test", ray, own, step, k0, k1, w0, w1)
		}
		return 0
	}
	if k0 != first || k1 != last {
		t.Fatalf("ray %+v own %v step %v: trim [%d, %d], per-sample test [%d, %d]", ray, own, step, k0, k1, first, last)
	}
	return n
}

func TestTrimEqualsPerSampleTest(t *testing.T) {
	dims := grid.I(20, 16, 12)
	type block struct {
		own   *grid.Extent
		ghost grid.Extent
	}
	ext := func(lx, ly, lz, hx, hy, hz int) grid.Extent { return grid.Ext(grid.I(lx, ly, lz), grid.I(hx, hy, hz)) }
	withGhost := func(own grid.Extent) block {
		return block{own: &own, ghost: grid.Ext(
			grid.I(max(own.Lo.X-1, 0), max(own.Lo.Y-1, 0), max(own.Lo.Z-1, 0)),
			grid.I(min(own.Hi.X+1, dims.X), min(own.Hi.Y+1, dims.Y), min(own.Hi.Z+1, dims.Z)))}
	}
	blocks := []block{
		{ghost: grid.WholeGrid(dims)},        // serial cast
		withGhost(grid.WholeGrid(dims)),      // one block owning everything
		withGhost(ext(5, 4, 3, 12, 9, 8)),    // interior
		withGhost(ext(10, 8, 6, 20, 16, 12)), // own.Hi == dims on every axis
		withGhost(ext(0, 0, 0, 10, 8, 6)),    // own.Lo == 0
		withGhost(ext(7, 0, 0, 8, 16, 12)),   // single plane of cells in x
		withGhost(ext(0, 0, 11, 20, 16, 12)), // the last z plane: owns [11, 12) but samples only z == 11
		{own: &grid.Extent{Lo: grid.I(5, 4, 3), Hi: grid.I(12, 9, 8)}, ghost: ext(5, 4, 3, 12, 9, 8)}, // no ghost: the field ends inside the owned box
	}
	rng := rand.New(rand.NewSource(5))
	var withSamples, empty int
	for _, b := range blocks {
		f := volume.NewField(dims, b.ghost)
		box := f.Bounds()
		if b.own != nil {
			box = ownedBounds(*b.own)
		}
		lo, size := box.Min, box.Size()
		for _, step := range []float64{1, 0.7, 0.25, 3, 1.0 / 3, 0.9} {
			cast := func(ray geom.Ray) {
				if checkTrim(t, f, b.own, box, step, ray) > 0 {
					withSamples++
				} else {
					empty++
				}
			}
			inBox := func() geom.Vec3 {
				return geom.V(lo.X+size.X*rng.Float64(), lo.Y+size.Y*rng.Float64(), lo.Z+size.Z*rng.Float64())
			}
			for i := 0; i < 300; i++ {
				// Random rays aimed at a point of the box from outside it.
				dir := geom.V(rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1).Norm()
				cast(geom.Ray{Origin: inBox().Sub(dir.Mul(40 + 10*rng.Float64())), Dir: dir})
			}
			for axis := 0; axis < 3; axis++ {
				for i := 0; i < 100; i++ {
					// Axis-parallel: two zero direction components.
					var dir geom.Vec3
					dir = dir.SetComp(axis, float64(1-2*rng.Intn(2)))
					o := inBox()
					cast(geom.Ray{Origin: o.Sub(dir.Mul(37.5)), Dir: dir})
					// The same ray in, on, and within slop of each face it
					// runs along, and of the sampleable limit dims-1.
					for _, other := range []int{(axis + 1) % 3, (axis + 2) % 3} {
						for _, face := range []float64{box.Min.Comp(other), box.Max.Comp(other), box.Max.Comp(other) - 1} {
							for _, off := range []float64{0, slop / 2, -slop / 2, 1e-12, -1e-12} {
								g := geom.Ray{Origin: o.SetComp(other, face+off).Sub(dir.Mul(37.5)), Dir: dir}
								cast(g)
							}
						}
					}
					// One zero component, the ray sliding along a face.
					d2 := dir.SetComp((axis+1)%3, rng.Float64()-0.5).Norm()
					cast(geom.Ray{Origin: o.Sub(d2.Mul(33)), Dir: d2})
				}
			}
			// Rays that start inside the box (t0 == 0) and integer-aligned
			// rays whose samples land exactly on lattice planes.
			for i := 0; i < 100; i++ {
				dir := geom.V(rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1).Norm()
				cast(geom.Ray{Origin: inBox(), Dir: dir})
				o := geom.V(math.Floor(lo.X+size.X*rng.Float64()), math.Floor(lo.Y+size.Y*rng.Float64()), -30)
				cast(geom.Ray{Origin: o, Dir: geom.V(0, 0, 1)})
			}
		}
	}
	if withSamples < 5000 || empty < 500 {
		t.Errorf("%d rays with samples, %d without: the test is not exercising both", withSamples, empty)
	}
}
