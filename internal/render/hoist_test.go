package render

import (
	"math"
	"runtime"
	"testing"

	"bgpvr/internal/geom"
	"bgpvr/internal/grid"
	"bgpvr/internal/img"
	"bgpvr/internal/volume"
)

// hoistCameras are the orthographic views of the hoist tests: a square
// and a non-square image, head-on and turned (so that right and up have
// three non-zero components each).
func hoistCameras() map[string]*Ortho {
	c := geom.V(11.5, 11.5, 11.5)
	head, turned := geom.V(0, 0, 1), geom.V(0.6, -0.35, 0.72)
	return map[string]*Ortho{
		"square":              NewOrtho(c, head, geom.V(0, 1, 0), 40, 40, 64, 64),
		"non-square":          NewOrtho(c, head, geom.V(0, 1, 0), 52, 31, 96, 40),
		"square turned":       NewOrtho(c, turned, geom.V(0, 1, 0), 40, 40, 64, 64),
		"non-square turned":   NewOrtho(c, turned, geom.V(0.1, 1, 0), 52, 31, 96, 40),
		"one column, one row": NewOrtho(c, turned, geom.V(0, 1, 0), 3, 5, 1, 1),
	}
}

// The origin a cast builds from its column terms and a row term is
// Ortho.Ray's at every pixel center, bit for bit — and Ortho.Ray's is
// still the expression it was before it was split into terms.
func TestOrthoOriginHoistedBitForBit(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bit identity across expressions holds where the compiler does not fuse multiply-add")
	}
	for name, o := range hoistCameras() {
		w, h := o.Size()
		for _, rect := range []img.Rect{{X0: 0, Y0: 0, X1: w, Y1: h}, {X0: w / 3, Y0: h / 4, X1: w, Y1: h - h/5}} {
			j := castJob{rect: rect}
			j.setOrtho(o)
			for y := rect.Y0; y < rect.Y1; y++ {
				rowTerm := o.rowTerm(float64(y) + 0.5)
				for x := rect.X0; x < rect.X1; x++ {
					px, py := float64(x)+0.5, float64(y)+0.5
					dx := (px/float64(o.basis.w) - 0.5) * o.width
					dy := (0.5 - py/float64(o.basis.h)) * o.height
					want := o.center.
						Add(o.basis.right.Mul(dx)).
						Add(o.basis.up.Mul(dy)).
						Sub(o.basis.fwd.Mul(o.backoff))
					ray := o.Ray(px, py)
					if !sameBits(ray.Origin, want) || ray.Dir != o.basis.fwd {
						t.Fatalf("%s: Ray(%v, %v) = %+v, want origin %+v", name, px, py, ray, want)
					}
					if got := j.orthoOrigin(x, rowTerm); !sameBits(got, want) {
						t.Fatalf("%s rect %v: hoisted origin at (%d, %d) = %+v, Ray's %+v", name, rect, x, y, got, want)
					}
				}
			}
			colTerms.Put(j.cols)
		}
	}
}

func sameBits(a, b geom.Vec3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

// spanScene is a block whose projection leaves transparent margins and
// transparent rows: the transfer function is opaque only in a band of
// values.
func spanScene(t *testing.T) (*volume.Field, grid.Extent, *volume.Transfer) {
	t.Helper()
	dims := grid.Cube(24)
	f := volume.Supernova{Seed: 7, Time: 0.9}.GenerateFull(volume.VarVelocityX, dims)
	return f, grid.WholeGrid(dims), volume.SupernovaTransfer()
}

// Every row's span is exactly its first and one-past-last
// non-transparent pixel, at any worker count and for the multivariate
// cast too; a row with none has an empty span. The block is the whole
// volume, so the serial render of the same view is its reference, pixel
// for pixel: outside the spans the subimage's pixels are unspecified,
// and the reference says which are transparent.
func TestCastRowsRecordsSpans(t *testing.T) {
	f, own, tf := spanScene(t)
	cams := map[string]Camera{
		"ortho": NewOrtho(geom.V(11.5, 11.5, 11.5), geom.V(0.3, -0.2, 1), geom.V(0, 1, 0), 60, 60, 80, 72),
		"persp": NewPersp(geom.V(11.5, 11.5, -60), geom.V(11.5, 11.5, 11.5), geom.V(0, 1, 0), 50, 80, 72),
	}
	cls := ModulatedClassifier(tf, 0.2, 0.8)
	for name, cam := range cams {
		for _, workers := range []int{1, 3} {
			cfg := Config{Step: 0.9, Workers: workers}
			single, _ := RenderFull(f, cam, tf, cfg)
			multi, _ := RenderFullMulti([]*volume.Field{f, f}, cam, cls, cfg)
			subs := map[string]struct {
				sub *Subimage
				ref *img.Image
			}{
				"single": {RenderBlock(f, own, cam, tf, cfg), single},
				"multi":  {RenderBlockMulti([]*volume.Field{f, f}, own, cam, cls, cfg), multi},
			}
			for kind, c := range subs {
				sub := c.sub
				if len(sub.Spans) != sub.Rect.H() {
					t.Fatalf("%s %s: %d spans for %d rows", name, kind, len(sub.Spans), sub.Rect.H())
				}
				w, empty, margins := sub.Rect.W(), 0, 0
				for y, sp := range sub.Spans {
					lo, hi := 0, 0
					for x := 0; x < w; x++ {
						if c.ref.At(sub.Rect.X0+x, sub.Rect.Y0+y) != (img.RGBA{}) {
							if hi == 0 {
								lo = x
							}
							hi = x + 1
						}
					}
					if int(sp.Lo) != lo || int(sp.Hi) != hi {
						t.Fatalf("%s %s workers=%d: row %d span [%d, %d), pixels say [%d, %d)", name, kind, workers, y, sp.Lo, sp.Hi, lo, hi)
					}
					for x := lo; x < hi; x++ {
						if p, q := sub.Pix[y*w+x], c.ref.At(sub.Rect.X0+x, sub.Rect.Y0+y); !samePixel(p, q) {
							t.Fatalf("%s %s workers=%d: row %d column %d is %+v, the serial render's %+v", name, kind, workers, y, x, p, q)
						}
					}
					if lo == hi {
						empty++
					} else if lo > 0 || hi < w {
						margins++
					}
				}
				if empty == 0 || margins == 0 {
					t.Errorf("%s %s: scene has %d empty rows and %d rows with margins; the test needs both", name, kind, empty, margins)
				}
				sub.Release()
			}
		}
	}
}

// A subimage rendered into recycled memory — which TestMain's poisoning
// has filled with NaN — is the one rendered into fresh memory: the same
// spans, and the same pixels inside them.
func TestRenderBlockIntoRecycledMemory(t *testing.T) {
	f, own, tf := spanScene(t)
	cam := NewOrtho(geom.V(11.5, 11.5, 11.5), geom.V(0.3, -0.2, 1), geom.V(0, 1, 0), 60, 60, 80, 72)
	cfg := Config{Step: 0.9}
	first := RenderBlock(f, own, cam, tf, cfg)
	want := append([]img.RGBA(nil), first.Pix...)
	wantSpans := append([]RowSpan(nil), first.Spans...)
	first.Release()
	if first.Pix != nil || first.Spans != nil {
		t.Error("Release left the subimage holding its buffers")
	}
	w := first.Rect.W()
	for round := 0; round < 4; round++ {
		sub := RenderBlock(f, own, cam, tf, cfg)
		for y, sp := range sub.Spans {
			if sp != wantSpans[y] {
				t.Fatalf("round %d: row %d span %+v, want %+v", round, y, sp, wantSpans[y])
			}
			for x := int(sp.Lo); x < int(sp.Hi); x++ {
				if p := sub.Pix[y*w+x]; !samePixel(p, want[y*w+x]) {
					t.Fatalf("round %d: row %d column %d = %+v, want %+v", round, y, x, p, want[y*w+x])
				}
			}
		}
		sub.Release()
	}
}
