// Package geom provides the small amount of 3D vector and ray geometry
// needed by the volume renderer: float64 3-vectors, 4x4 transforms,
// axis-aligned boxes, and ray/box intersection.
//
// The package is deliberately minimal; it exists so that the renderer,
// the block decomposition, and the compositor share one set of geometric
// conventions (right-handed coordinates, rays parameterized as
// origin + t*dir with t in world units).
package geom

import "math"

// Vec3 is a 3-component float64 vector.
type Vec3 struct {
	X, Y, Z float64
}

// V constructs a Vec3.
func V(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Mul returns the scalar product s*v.
func (v Vec3) Mul(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v x w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Len returns the Euclidean length of v.
func (v Vec3) Len() float64 { return math.Sqrt(v.Dot(v)) }

// Norm returns v scaled to unit length. The zero vector is returned
// unchanged.
func (v Vec3) Norm() Vec3 {
	l := v.Len()
	if l == 0 {
		return v
	}
	return v.Mul(1 / l)
}

// Comp returns the i-th component of v (0=X, 1=Y, 2=Z).
func (v Vec3) Comp(i int) float64 {
	switch i {
	case 0:
		return v.X
	case 1:
		return v.Y
	default:
		return v.Z
	}
}

// SetComp returns a copy of v with the i-th component replaced by s.
func (v Vec3) SetComp(i int, s float64) Vec3 {
	switch i {
	case 0:
		v.X = s
	case 1:
		v.Y = s
	default:
		v.Z = s
	}
	return v
}

// Min returns the component-wise minimum of v and w.
func (v Vec3) Min(w Vec3) Vec3 {
	return Vec3{math.Min(v.X, w.X), math.Min(v.Y, w.Y), math.Min(v.Z, w.Z)}
}

// Max returns the component-wise maximum of v and w.
func (v Vec3) Max(w Vec3) Vec3 {
	return Vec3{math.Max(v.X, w.X), math.Max(v.Y, w.Y), math.Max(v.Z, w.Z)}
}

// Ray is a half-line origin + t*Dir, t >= 0. Dir need not be unit length;
// t is measured in units of Dir.
type Ray struct {
	Origin, Dir Vec3
}

// At returns the point at parameter t along the ray.
func (r Ray) At(t float64) Vec3 { return r.Origin.Add(r.Dir.Mul(t)) }
