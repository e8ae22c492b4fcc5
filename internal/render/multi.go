package render

import (
	"bgpvr/internal/geom"
	"bgpvr/internal/grid"
	"bgpvr/internal/img"
	"bgpvr/internal/volume"
)

// Multivariate rendering: the paper reads the five-variable netCDF file
// directly partly because it "affords the possibility to perform
// multivariate visualizations in the future" (§V). These entry points
// sample co-located fields per ray position and classify the first
// field's value modulated by the second's. The same global sample grid
// and half-open ownership apply, so the parallel == serial invariant
// carries over unchanged.

// MultiClassifier is the multivariate classification, built by
// ModulatedClassifier: colour and base opacity from the first field's
// value through a transfer function, premultiplied and corrected for the
// step, then scaled by the second field's value mapped through [lo, hi]
// -> [0, 1] (clamped). A second value below lo, or NaN, erases the
// sample. Further fields bound where a block takes samples but are not
// classified.
type MultiClassifier struct {
	tf     *volume.Transfer
	lo, hi float64
}

// ModulatedClassifier builds the bivariate classification MultiClassifier
// describes.
func ModulatedClassifier(tf *volume.Transfer, lo, hi float64) MultiClassifier {
	return MultiClassifier{tf: tf, lo: lo, hi: hi}
}

// modulate scales s, the first field's classification at a sample, by
// the second field's value v there.
func (c *MultiClassifier) modulate(s img.RGBA, v float64) img.RGBA {
	w := (v - c.lo) / (c.hi - c.lo)
	if !(w > 0) { // below lo, or NaN
		return img.RGBA{}
	}
	if w > 1 {
		w = 1
	}
	return img.RGBA{R: s.R * float32(w), G: s.G * float32(w), B: s.B * float32(w), A: s.A * float32(w)}
}

// castMulti is cast over the classified fields: a chunk at a time, the
// first field and (when there is one) the second each interpolate the
// chunk's samples into their row of runs, and ClassifyOver classifies
// the first row with modulate as its shading hook, carrying the segment
// hint in seg. An erased sample then goes over the pixel as the
// transparent sample, which leaves every bit as it is: no accumulated
// channel is −0, since the colours are +0 or above, and its opacity, which
// did not reach term before, does not now.
func (j *castJob) castMulti(ray geom.Ray, k0, k1 int64, runs [][chunk]float64, seg *int) (img.RGBA, int64) {
	var acc img.RGBA
	var samples int64
	pl, c := &j.plan, &j.cls
	var modulate func(i int, s img.RGBA) img.RGBA
	if len(runs) > 1 {
		second := &runs[1]
		modulate = func(i int, s img.RGBA) img.RGBA { return c.modulate(s, second[i]) }
	}
	for k := k0; k <= k1; {
		n := int(min(k1-k+1, chunk))
		pl.vol.InterpRay(ray.Origin, ray.Dir, pl.step, k, runs[0][:n])
		if len(runs) > 1 {
			pl.more[0].InterpRay(ray.Origin, ray.Dir, pl.step, k, runs[1][:n])
		}
		var used int
		acc, used = c.tf.ClassifyOver(acc, runs[0][:n], pl.step, pl.term, seg, modulate)
		samples += int64(used)
		if float64(acc.A) >= pl.term {
			break
		}
		k += int64(n)
	}
	return acc, samples
}

// RenderBlockMulti renders one block's partial image from several
// co-extent fields (each must cover the block plus one ghost layer).
// Shading is a single-field feature and is ignored here.
func RenderBlockMulti(fs []*volume.Field, own grid.Extent, cam Camera, cls MultiClassifier, cfg Config) *Subimage {
	rect := ProjectedRect(cam, own)
	if len(fs) == 0 {
		return &Subimage{Rect: rect, Pix: make([]img.RGBA, rect.NumPixels())}
	}
	sub := newSubimage(rect)
	if rect.Empty() {
		return sub
	}
	j := castJob{plan: newCastPlan(fs, &own, cfg), cls: cls, workers: cfg.Workers,
		cam: cam, box: ownedBounds(own), rect: rect, pix: sub.Pix, stride: rect.W(), spans: sub.Spans}
	sub.Samples = j.run()
	return sub
}

// RenderFullMulti is the serial multivariate reference renderer.
func RenderFullMulti(fs []*volume.Field, cam Camera, cls MultiClassifier, cfg Config) (*img.Image, int64) {
	w, h := cam.Size()
	out := img.New(w, h)
	if len(fs) == 0 {
		return out, 0
	}
	j := castJob{plan: newCastPlan(fs, nil, cfg), cls: cls, workers: cfg.Workers,
		cam: cam, box: fs[0].Bounds(), rect: img.Rect{X0: 0, Y0: 0, X1: w, Y1: h}, pix: out.Pix, stride: w}
	return out, j.run()
}
