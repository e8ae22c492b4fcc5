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

// Empty reports whether the box contains no points.
func (b AABB) Empty() bool {
	return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z
}

// Center returns the centroid of the box.
func (b AABB) Center() Vec3 { return b.Min.Add(b.Max).Mul(0.5) }

// Size returns the extent of the box along each axis.
func (b AABB) Size() Vec3 { return b.Max.Sub(b.Min) }

// Contains reports whether p lies inside or on the boundary of b.
func (b AABB) Contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Union returns the smallest box containing both b and c.
func (b AABB) Union(c AABB) AABB {
	if b.Empty() {
		return c
	}
	if c.Empty() {
		return b
	}
	return AABB{b.Min.Min(c.Min), b.Max.Max(c.Max)}
}

// Intersect returns the intersection of b and c (possibly empty).
func (b AABB) Intersect(c AABB) AABB {
	return AABB{b.Min.Max(c.Min), b.Max.Min(c.Max)}
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
	return b.RayIntersectInv(r, r.InvDir())
}

// InvDir returns the component-wise reciprocal of the ray's direction
// (infinite where a component is zero), which RayIntersectInv takes so
// that rays sharing one direction divide once, not once per ray.
func (r Ray) InvDir() Vec3 { return Vec3{1 / r.Dir.X, 1 / r.Dir.Y, 1 / r.Dir.Z} }

// RayIntersectInv is RayIntersect given inv = r.InvDir().
func (b AABB) RayIntersectInv(r Ray, inv Vec3) (t0, t1 float64, ok bool) {
	t0, t1 = 0, math.Inf(1)
	if !slab(r.Origin.X, r.Dir.X, inv.X, b.Min.X, b.Max.X, &t0, &t1) ||
		!slab(r.Origin.Y, r.Dir.Y, inv.Y, b.Min.Y, b.Max.Y, &t0, &t1) ||
		!slab(r.Origin.Z, r.Dir.Z, inv.Z, b.Min.Z, b.Max.Z, &t0, &t1) {
		return 0, 0, false
	}
	return t0, t1, true
}

// slab narrows [t0, t1] to the ray's span between the planes lo and hi
// of one axis, and reports whether anything is left.
func slab(o, d, inv, lo, hi float64, t0, t1 *float64) bool {
	if d == 0 {
		return !(o < lo || o > hi)
	}
	ta, tb := (lo-o)*inv, (hi-o)*inv
	if ta > tb {
		ta, tb = tb, ta
	}
	if ta > *t0 {
		*t0 = ta
	}
	if tb < *t1 {
		*t1 = tb
	}
	return !(*t0 > *t1)
}
