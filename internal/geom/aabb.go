package geom

import "math"

// AABB is an axis-aligned bounding box [Min, Max] in world coordinates.
// A box with any Min component greater than the corresponding Max
// component is empty.
type AABB struct {
	Min, Max Vec3
}

// Box constructs an AABB from two corner points, which need not be
// ordered.
func Box(a, b Vec3) AABB { return AABB{a.Min(b), a.Max(b)} }

// Size returns the extent of the box along each axis.
func (b AABB) Size() Vec3 { return b.Max.Sub(b.Min) }

// Contains reports whether p lies inside or on the boundary of b.
func (b AABB) Contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Corners returns the eight corner points of the box.
func (b AABB) Corners() [8]Vec3 {
	var c [8]Vec3
	for i := 0; i < 8; i++ {
		x := b.Min.X
		if i&1 != 0 {
			x = b.Max.X
		}
		y := b.Min.Y
		if i&2 != 0 {
			y = b.Max.Y
		}
		z := b.Min.Z
		if i&4 != 0 {
			z = b.Max.Z
		}
		c[i] = Vec3{x, y, z}
	}
	return c
}

// RayIntersect returns the parametric interval [t0, t1] over which the
// ray lies inside the box, clipped to t >= 0, and ok=false when the ray
// misses the box entirely. It uses the robust slabs method; rays lying
// exactly in a bounding plane are treated as inside.
func (b AABB) RayIntersect(r Ray) (t0, t1 float64, ok bool) {
	d := b.ForDir(r.Dir)
	return d.Intersect(r.Origin)
}

// DirBox is a box prepared for rays of one direction: everything the
// slab test decides from the direction alone — which plane of each axis
// a ray enters by and which it leaves by, the direction's reciprocal,
// and the axes the direction is flat on — decided once, so that rays
// sharing a direction differ only in their origin.
type DirBox struct {
	x, y, z dirSlab
}

// dirSlab is one axis of a DirBox.
type dirSlab struct {
	// The planes in the order a ray crosses them: Min then Max when the
	// direction component is positive, Max then Min when negative. With
	// inv > 0, (Min-o)*inv <= (Max-o)*inv because rounding is monotone,
	// and with inv < 0 the reverse, so choosing by sign orders the two
	// parameters as comparing them would.
	near, far float64
	inv       float64
	// flat: the component is zero (of either sign); near and far are Min
	// and Max, and the ray is inside the slab for all t or for none.
	flat bool
}

func newDirSlab(d, lo, hi float64) dirSlab {
	if d < 0 {
		lo, hi = hi, lo
	}
	return dirSlab{near: lo, far: hi, inv: 1 / d, flat: d == 0}
}

// ForDir prepares the box for rays of direction dir. An empty box (some
// Min above its Max) is missed by every ray that is not flat on that
// axis.
func (b AABB) ForDir(dir Vec3) DirBox {
	return DirBox{
		x: newDirSlab(dir.X, b.Min.X, b.Max.X),
		y: newDirSlab(dir.Y, b.Min.Y, b.Max.Y),
		z: newDirSlab(dir.Z, b.Min.Z, b.Max.Z),
	}
}

// clip narrows [t0, t1] to the span of a ray from o between the slab's
// planes, and reports false when a flat ray lies outside them.
func (s *dirSlab) clip(o, t0, t1 float64) (float64, float64, bool) {
	if s.flat {
		return t0, t1, !(o < s.near || o > s.far)
	}
	if t := (s.near - o) * s.inv; t > t0 {
		t0 = t
	}
	if t := (s.far - o) * s.inv; t < t1 {
		t1 = t
	}
	return t0, t1, true
}

// Intersect is RayIntersect for the ray from origin along the prepared
// direction. t0 only rises and t1 only falls from axis to axis, so one
// comparison after the last rejects the rays a comparison after each
// would.
func (b *DirBox) Intersect(origin Vec3) (t0, t1 float64, ok bool) {
	t0, t1 = 0, math.Inf(1)
	t0, t1, inX := b.x.clip(origin.X, t0, t1)
	t0, t1, inY := b.y.clip(origin.Y, t0, t1)
	t0, t1, inZ := b.z.clip(origin.Z, t0, t1)
	if !(inX && inY && inZ) || t0 > t1 {
		return 0, 0, false
	}
	return t0, t1, true
}
