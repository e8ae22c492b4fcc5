package geom

import (
	"math"
	"math/rand"
	"testing"
)

// referenceRayIntersect is RayIntersect as it was before the box was
// prepared per direction: per axis, both plane parameters computed, the
// two swapped when out of order, and a miss reported as soon as an axis
// leaves nothing.
func referenceRayIntersect(b AABB, r Ray) (t0, t1 float64, ok bool) {
	slab := func(o, d, lo, hi float64) bool {
		if d == 0 {
			return !(o < lo || o > hi)
		}
		inv := 1 / d
		ta, tb := (lo-o)*inv, (hi-o)*inv
		if ta > tb {
			ta, tb = tb, ta
		}
		if ta > t0 {
			t0 = ta
		}
		if tb < t1 {
			t1 = tb
		}
		return !(t0 > t1)
	}
	t0, t1 = 0, math.Inf(1)
	if !slab(r.Origin.X, r.Dir.X, b.Min.X, b.Max.X) ||
		!slab(r.Origin.Y, r.Dir.Y, b.Min.Y, b.Max.Y) ||
		!slab(r.Origin.Z, r.Dir.Z, b.Min.Z, b.Max.Z) {
		return 0, 0, false
	}
	return t0, t1, true
}

// checkDirBox compares the prepared box with the reference, bit for
// bit, and reports whether the ray hit. The sign of a zero t1 is the one
// thing not compared: when both parameters of an axis underflow to zeros
// of opposite sign, comparing them keeps their order and the sign of the
// direction may reverse it.
func checkDirBox(t testing.TB, b AABB, r Ray) bool {
	t.Helper()
	bits := func(t0, t1 float64) [2]uint64 {
		if t1 == 0 {
			t1 = 0
		}
		return [2]uint64{math.Float64bits(t0), math.Float64bits(t1)}
	}
	w0, w1, wok := referenceRayIntersect(b, r)
	d := b.ForDir(r.Dir)
	g0, g1, gok := d.Intersect(r.Origin)
	if gok != wok || bits(g0, g1) != bits(w0, w1) {
		t.Fatalf("box %+v ray %+v: ForDir.Intersect = (%v, %v, %v), slab reference (%v, %v, %v)", b, r, g0, g1, gok, w0, w1, wok)
	}
	if r0, r1, rok := b.RayIntersect(r); rok != gok || bits(r0, r1) != bits(g0, g1) {
		t.Fatalf("box %+v ray %+v: RayIntersect = (%v, %v, %v), ForDir.Intersect (%v, %v, %v)", b, r, r0, r1, rok, g0, g1, gok)
	}
	return gok
}

func TestDirBoxMatchesSlabBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	negZero := math.Copysign(0, -1)
	var hits, misses, lastAxisMisses int
	count := func(hit bool) {
		if hit {
			hits++
		} else {
			misses++
		}
	}
	for i := 0; i < 400; i++ {
		b := Box(
			V(rng.Float64()*40-20, rng.Float64()*40-20, rng.Float64()*40-20),
			V(rng.Float64()*40-20, rng.Float64()*40-20, rng.Float64()*40-20))
		if i%10 == 0 {
			b.Max.Z = b.Min.Z // a box with no thickness on one axis
		}
		size := b.Size()
		in := func() Vec3 {
			return V(b.Min.X+size.X*rng.Float64(), b.Min.Y+size.Y*rng.Float64(), b.Min.Z+size.Z*rng.Float64())
		}
		for j := 0; j < 40; j++ {
			dir := V(rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1).Norm()
			// Aimed at the box from outside it, from inside it, and
			// anywhere at all.
			count(checkDirBox(t, b, Ray{Origin: in().Sub(dir.Mul(30 + 30*rng.Float64())), Dir: dir}))
			count(checkDirBox(t, b, Ray{Origin: in(), Dir: dir}))
			count(checkDirBox(t, b, Ray{Origin: V(rng.Float64()*80-40, rng.Float64()*80-40, rng.Float64()*80-40), Dir: dir}))

			// Zero and negative-zero direction components, one and two
			// at a time, with the origin inside, outside and exactly in
			// a bounding plane of the flat axis.
			for axis := 0; axis < 3; axis++ {
				for _, zero := range []float64{0, negZero} {
					flat := dir.SetComp(axis, zero)
					flat2 := flat.SetComp((axis+1)%3, zero)
					for _, d := range []Vec3{flat, flat2} {
						o := in().Sub(d.Mul(50))
						count(checkDirBox(t, b, Ray{Origin: o, Dir: d}))
						for _, plane := range []float64{b.Min.Comp(axis), b.Max.Comp(axis)} {
							count(checkDirBox(t, b, Ray{Origin: o.SetComp(axis, plane), Dir: d}))
							count(checkDirBox(t, b, Ray{Origin: o.SetComp(axis, math.Nextafter(plane, math.Inf(1))), Dir: d}))
							count(checkDirBox(t, b, Ray{Origin: o.SetComp(axis, math.Nextafter(plane, math.Inf(-1))), Dir: d}))
						}
					}
				}
				// Origin exactly in a bounding plane, direction general.
				for _, plane := range []float64{b.Min.Comp(axis), b.Max.Comp(axis)} {
					count(checkDirBox(t, b, Ray{Origin: in().SetComp(axis, plane), Dir: dir}))
				}
			}

			// A ray that passes through the box's x and y slabs together
			// but has left them before it reaches the z slab: the miss
			// shows on the last axis only.
			target := in()
			o := target.Sub(dir.Mul(35))
			far := b.Max.Z + 1000
			if dir.Z < 0 {
				far = b.Min.Z - 1000
			}
			shifted := b
			shifted.Min.Z, shifted.Max.Z = math.Min(far, far+size.Z), math.Max(far, far+size.Z)
			if _, _, ok := referenceRayIntersect(AABB{Min: V(b.Min.X, b.Min.Y, math.Inf(-1)), Max: V(b.Max.X, b.Max.Y, math.Inf(1))}, Ray{Origin: o, Dir: dir}); ok {
				if !checkDirBox(t, shifted, Ray{Origin: o, Dir: dir}) {
					lastAxisMisses++
				}
			}
		}
	}
	if hits < 50000 || misses < 50000 || lastAxisMisses < 1000 {
		t.Errorf("%d hits, %d misses, %d misses on the last axis only: the test is not exercising all three", hits, misses, lastAxisMisses)
	}
}

// FuzzDirBoxMatchesSlab is the differential form of the test above. Its
// domain is finite boxes, origins and directions whose reciprocals are
// finite: a subnormal direction component has an infinite reciprocal,
// and an origin exactly in a plane then makes one parameter 0·∞, which
// the compare-and-swap and the choice by sign order differently.
func FuzzDirBoxMatchesSlab(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 10.0, 10.0, 10.0, -5.0, 5.0, 5.0, 1.0, 0.0, 0.0)
	f.Add(0.0, 0.0, 0.0, 10.0, 10.0, 10.0, 5.0, 10.0, -5.0, 0.0, math.Copysign(0, -1), 1.0)
	f.Add(-3.0, 2.0, 1.0, 4.0, 2.0, 9.0, 20.0, 2.0, 20.0, -0.6, 0.0, -0.8)
	f.Add(0.0, 0.0, 0.0, 95.0, 95.0, 95.0, 47.5, 47.5, 400.0, 0.31, -0.22, -0.92)
	f.Add(1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 1.0, 1.5, 0.0, 1e-300, 1e-300, 1.0)
	f.Fuzz(func(t *testing.T, ax, ay, az, bx, by, bz, ox, oy, oz, dx, dy, dz float64) {
		for _, v := range []float64{ax, ay, az, bx, by, bz, ox, oy, oz, dx, dy, dz} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		for _, d := range []float64{dx, dy, dz} {
			if d != 0 && math.IsInf(1/d, 0) {
				t.Skip()
			}
		}
		checkDirBox(t, Box(V(ax, ay, az), V(bx, by, bz)), Ray{Origin: V(ox, oy, oz), Dir: V(dx, dy, dz)})
	})
}
