// Package img provides the image representation used by the renderer and
// compositor: float32 premultiplied-alpha RGBA pixels, the Porter-Duff
// "over" operator, rectangular and scanline-range subimages, and simple
// PPM/PGM encoders for writing results to disk.
//
// Premultiplied alpha is essential here: it makes "over" associative, so
// partial images composited in visibility order by any grouping
// (direct-send regions, binary-swap halves) produce the same final image
// as a serial front-to-back accumulation.
package img

import (
	"fmt"
	"math"

	"bgpvr/internal/scratch"
)

// RGBA is one premultiplied-alpha pixel. Components are "energy"
// values in [0, A] with A in [0, 1] for physically meaningful pixels,
// though the type does not enforce it.
type RGBA struct {
	R, G, B, A float32
}

// Over composites pixel f over pixel b (both premultiplied) and returns
// the result: f + (1-f.A)*b.
func Over(f, b RGBA) RGBA {
	t := 1 - f.A
	return RGBA{
		R: f.R + t*b.R,
		G: f.G + t*b.G,
		B: f.B + t*b.B,
		A: f.A + t*b.A,
	}
}

// OverSlices composites front over back element-wise, storing the result
// in back (so that repeated compositing into an accumulator does not
// allocate). The slices must have equal length.
func OverSlices(front, back []RGBA) {
	if len(front) != len(back) {
		panic("img: OverSlices length mismatch")
	}
	for i, f := range front {
		t := 1 - f.A
		b := back[i]
		back[i] = RGBA{f.R + t*b.R, f.G + t*b.G, f.B + t*b.B, f.A + t*b.A}
	}
}

// UnderSlices composites back under front, storing the result in back.
// It is the dual used when accumulating in front-to-back arrival order:
// acc = acc over incoming.
func UnderSlices(back, incoming []RGBA) {
	if len(back) != len(incoming) {
		panic("img: UnderSlices length mismatch")
	}
	for i := range back {
		f := back[i]
		t := 1 - f.A
		b := incoming[i]
		back[i] = RGBA{f.R + t*b.R, f.G + t*b.G, f.B + t*b.B, f.A + t*b.A}
	}
}

// Pixels recycles the pixel buffers whose lifetime is one frame —
// subimages, tile accumulators — under internal/scratch's ownership
// rule. (An Image is not among them: the caller keeps it.)
var Pixels = scratch.Pool[RGBA]{Poison: RGBA{R: nan32, G: nan32, B: nan32, A: nan32}}

var nan32 = float32(math.NaN())

// Image is a W x H pixel buffer in row-major order (row 0 at the top).
type Image struct {
	W, H int
	Pix  []RGBA
}

// New allocates a transparent-black image.
func New(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]RGBA, w*h)}
}

// At returns the pixel at (x, y).
func (m *Image) At(x, y int) RGBA { return m.Pix[y*m.W+x] }

// Set stores the pixel at (x, y).
func (m *Image) Set(x, y int, p RGBA) { m.Pix[y*m.W+x] = p }

// MaxDiff returns the L-infinity distance between two images of equal
// size, across all components of all pixels: +Inf when a difference is
// NaN, so that a NaN pixel fails a tolerance test however it is written
// (d > tol passes a NaN d).
func MaxDiff(a, b *Image) float64 {
	if a.W != b.W || a.H != b.H {
		panic("img: MaxDiff size mismatch")
	}
	var d float64
	for i := range a.Pix {
		p, q := a.Pix[i], b.Pix[i]
		for _, c := range [4]float64{
			float64(p.R - q.R), float64(p.G - q.G),
			float64(p.B - q.B), float64(p.A - q.A),
		} {
			if c != c {
				return math.Inf(1)
			}
			d = math.Max(d, math.Abs(c))
		}
	}
	return d
}

// Rect is a rectangle [X0,X1) x [Y0,Y1) in pixel coordinates.
type Rect struct {
	X0, Y0, X1, Y1 int
}

// Empty reports whether the rectangle covers no pixels.
func (r Rect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// W returns the rectangle width (0 if empty).
func (r Rect) W() int {
	if r.Empty() {
		return 0
	}
	return r.X1 - r.X0
}

// H returns the rectangle height (0 if empty).
func (r Rect) H() int {
	if r.Empty() {
		return 0
	}
	return r.Y1 - r.Y0
}

// NumPixels returns the pixel count of the rectangle.
func (r Rect) NumPixels() int { return r.W() * r.H() }

// Intersect clips r to s.
func (r Rect) Intersect(s Rect) Rect {
	return Rect{
		X0: max(r.X0, s.X0), Y0: max(r.Y0, s.Y0),
		X1: min(r.X1, s.X1), Y1: min(r.Y1, s.Y1),
	}
}

func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", r.X0, r.X1, r.Y0, r.Y1)
}
