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
// sample several co-located fields per ray position and classify the
// vector of values through one combined classifier. The same global
// sample grid and half-open ownership apply, so the parallel == serial
// invariant carries over unchanged.

// MultiClassifier maps the sampled values of all fields at one position
// to a premultiplied color, with the step-size opacity correction
// already applied (volume.Transfer.Classify composes well here).
type MultiClassifier func(vals []float64, step float64) img.RGBA

// castMulti is cast over several fields: vals (one slot per field) is
// filled at each sample and classified as a whole.
func (j *castJob) castMulti(ray geom.Ray, k0, k1 int64, vals []float64) (img.RGBA, int64) {
	var acc img.RGBA
	var samples int64
	pl := &j.plan
	for k := k0; k <= k1; k++ {
		p := ray.At(float64(k) * pl.step)
		vals[0] = pl.vol.Interp(p)
		for i := range pl.more {
			vals[i+1] = pl.more[i].Interp(p)
		}
		samples++
		s := j.cls(vals, pl.step)
		if s.A == 0 && s.R == 0 && s.G == 0 && s.B == 0 {
			continue
		}
		acc = img.Over(acc, s)
		if float64(acc.A) >= pl.term {
			break
		}
	}
	return acc, samples
}

// RenderBlockMulti renders one block's partial image from several
// co-extent fields (each must cover the block plus one ghost layer).
// Macrocell skipping and shading are single-field features and are
// ignored here.
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

// ModulatedClassifier builds the common bivariate classification: color
// and base opacity from the primary value through tf, with the opacity
// scaled by the secondary value mapped through [lo, hi] -> [0, 1]
// (clamped). Values of the secondary field below lo erase the sample.
func ModulatedClassifier(tf *volume.Transfer, lo, hi float64) MultiClassifier {
	return func(vals []float64, step float64) img.RGBA {
		s := tf.Classify(vals[0], step)
		if len(vals) < 2 {
			return s
		}
		w := (vals[1] - lo) / (hi - lo)
		if !(w > 0) { // below lo, or NaN
			return img.RGBA{}
		}
		if w > 1 {
			w = 1
		}
		return img.RGBA{R: s.R * float32(w), G: s.G * float32(w), B: s.B * float32(w), A: s.A * float32(w)}
	}
}
