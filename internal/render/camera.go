// Package render implements the paper's rendering stage: software ray
// casting of a block-decomposed structured grid. Each process casts a
// ray through every pixel its block projects to, samples the field
// front to back on a *globally consistent* sample grid, classifies
// samples through a transfer function, and accumulates a premultiplied
// partial image. Because sample positions are identical across
// processes and each sample is owned by exactly one block, compositing
// the partial images in visibility order reproduces the serial rendering
// bit-for-bit up to floating-point associativity.
package render

import (
	"math"

	"bgpvr/internal/geom"
)

// Camera generates primary rays and projects world points to pixels.
// Pixel coordinates run [0, W) x [0, H) with (0, 0) the top-left; rays
// are cast through pixel centers. Ray directions are unit length, so the
// ray parameter t is in world units for every camera — the property the
// global sample grid relies on.
type Camera interface {
	// Ray returns the primary ray through pixel center (px, py).
	Ray(px, py float64) geom.Ray
	// Project maps a world point to continuous pixel coordinates.
	// ok is false when the point does not project (behind the eye).
	Project(p geom.Vec3) (px, py float64, ok bool)
	// Size returns the image dimensions in pixels.
	Size() (w, h int)
}

// camBasis holds the orthonormal view basis shared by both cameras.
type camBasis struct {
	right, up, fwd geom.Vec3
	w, h           int
}

func makeBasis(fwd, up geom.Vec3, w, h int) camBasis {
	f := fwd.Norm()
	r := f.Cross(up).Norm()
	u := r.Cross(f) // already unit
	return camBasis{right: r, up: u, fwd: f, w: w, h: h}
}

// Ortho is an orthographic camera: parallel rays along the view
// direction, covering a world-space window of Width x Height centered at
// Center.
type Ortho struct {
	basis         camBasis
	center        geom.Vec3
	width, height float64
	backoff       float64 // how far behind the window plane rays start
}

// NewOrtho builds an orthographic camera looking from center along dir
// (need not be unit), with the given world-space window and image size.
// Rays originate a volume-diagonal behind the window so the entire
// volume is always in front of them.
func NewOrtho(center, dir, up geom.Vec3, width, height float64, w, h int) *Ortho {
	return &Ortho{
		basis:   makeBasis(dir, up, w, h),
		center:  center,
		width:   width,
		height:  height,
		backoff: 2 * (width + height),
	}
}

// Size implements Camera.
func (o *Ortho) Size() (int, int) { return o.basis.w, o.basis.h }

// Ray implements Camera. The origin is a sum of three terms: one that
// depends only on the column, one only on the row and one on neither, so
// a cast over a rectangle (castJob) builds each once instead of once per
// pixel and adds them in this order, to the same bits.
func (o *Ortho) Ray(px, py float64) geom.Ray {
	origin := o.colTerm(px).Add(o.rowTerm(py)).Sub(o.backTerm())
	return geom.Ray{Origin: origin, Dir: o.basis.fwd}
}

// colTerm is the part of a ray's origin its column fixes: the window
// center moved along right.
func (o *Ortho) colTerm(px float64) geom.Vec3 {
	dx := (px/float64(o.basis.w) - 0.5) * o.width
	return o.center.Add(o.basis.right.Mul(dx))
}

// rowTerm is the part its row fixes: the offset along up.
func (o *Ortho) rowTerm(py float64) geom.Vec3 {
	dy := (0.5 - py/float64(o.basis.h)) * o.height
	return o.basis.up.Mul(dy)
}

// backTerm is how far behind the window plane every ray starts.
func (o *Ortho) backTerm() geom.Vec3 { return o.basis.fwd.Mul(o.backoff) }

// Project implements Camera.
func (o *Ortho) Project(p geom.Vec3) (float64, float64, bool) {
	d := p.Sub(o.center)
	dx := d.Dot(o.basis.right)
	dy := d.Dot(o.basis.up)
	px := (dx/o.width + 0.5) * float64(o.basis.w)
	py := (0.5 - dy/o.height) * float64(o.basis.h)
	return px, py, true
}

// Eye returns a point far behind the window along the view direction,
// usable as the "eye" for visibility ordering of an orthographic view.
func (o *Ortho) Eye() geom.Vec3 {
	return o.center.Sub(o.basis.fwd.Mul(1e7))
}

// Persp is a perspective pinhole camera.
type Persp struct {
	basis    camBasis
	eye      geom.Vec3
	tanHalfV float64 // tan of half the vertical field of view
	aspect   float64
}

// NewPersp builds a perspective camera at eye looking toward look with
// the given vertical field of view in degrees.
func NewPersp(eye, look, up geom.Vec3, vfovDeg float64, w, h int) *Persp {
	return &Persp{
		basis:    makeBasis(look.Sub(eye), up, w, h),
		eye:      eye,
		tanHalfV: math.Tan(vfovDeg * math.Pi / 360),
		aspect:   float64(w) / float64(h),
	}
}

// Size implements Camera.
func (c *Persp) Size() (int, int) { return c.basis.w, c.basis.h }

// Eye returns the camera position (used for visibility ordering).
func (c *Persp) Eye() geom.Vec3 { return c.eye }

// Ray implements Camera.
func (c *Persp) Ray(px, py float64) geom.Ray {
	sx := (2*px/float64(c.basis.w) - 1) * c.tanHalfV * c.aspect
	sy := (1 - 2*py/float64(c.basis.h)) * c.tanHalfV
	dir := c.basis.fwd.Add(c.basis.right.Mul(sx)).Add(c.basis.up.Mul(sy)).Norm()
	return geom.Ray{Origin: c.eye, Dir: dir}
}

// Project implements Camera.
func (c *Persp) Project(p geom.Vec3) (float64, float64, bool) {
	d := p.Sub(c.eye)
	z := d.Dot(c.basis.fwd)
	if z <= 1e-9 {
		return 0, 0, false
	}
	sx := d.Dot(c.basis.right) / z / (c.tanHalfV * c.aspect)
	sy := d.Dot(c.basis.up) / z / c.tanHalfV
	return (sx + 1) / 2 * float64(c.basis.w), (1 - sy) / 2 * float64(c.basis.h), true
}
