package render

import (
	"math"

	"bgpvr/internal/geom"
	"bgpvr/internal/volume"
)

// Shading parameters (Lambertian with an ambient floor, the standard
// gradient-shaded volume rendering look of the paper's Fig 1).
type Shading struct {
	// Enabled turns gradient shading on.
	Enabled bool
	// LightDir is the direction light travels (world space; need not be
	// unit). The zero vector defaults to a headlight-ish diagonal.
	LightDir geom.Vec3
	// Ambient and Diffuse weight the two terms; both default sensibly
	// when zero (0.3 / 0.7).
	Ambient, Diffuse float64
}

// gradStep is the central-difference half-step in voxels. It must stay
// strictly below 1 so one ghost layer suffices for gradients anywhere in
// a block's owned region (a sample at distance epsilon from the block
// face probes at most gradStep past it).
const gradStep = 0.5

// shader precomputes the normalized shading state for a cast.
type shader struct {
	light            geom.Vec3
	ambient, diffuse float64
	bounds           geom.AABB // sampleable region [0, dims-1]
}

func newShader(s Shading, dims geom.Vec3) *shader {
	if !s.Enabled {
		return nil
	}
	l := s.LightDir
	if l == (geom.Vec3{}) {
		l = geom.V(-0.4, -0.8, -0.5)
	}
	a, d := s.Ambient, s.Diffuse
	if a == 0 && d == 0 {
		a, d = 0.3, 0.7
	}
	return &shader{
		light:   l.Norm(),
		ambient: a,
		diffuse: d,
		bounds:  geom.Box(geom.V(0, 0, 0), dims),
	}
}

// clampedSample samples vol at p with each coordinate clamped to the
// sampleable region, so gradients at the volume boundary are one-sided.
// Both the serial and the parallel renderer clamp to the same *volume*
// bounds, which is what keeps their shaded images identical. The clamp
// is the builtin max and min, which take ±0 and infinities as math.Max
// and math.Min do, without the call each of those makes on amd64: only
// a NaN may come out with other bits, and a NaN point is outside every
// field, so it samples 0 either way.
func (sh *shader) clampedSample(vol *volume.Sampler, p geom.Vec3) float64 {
	lo, hi := &sh.bounds.Min, &sh.bounds.Max
	p = geom.V(min(max(p.X, lo.X), hi.X), min(max(p.Y, lo.Y), hi.Y), min(max(p.Z, lo.Z), hi.Z))
	v, ok := vol.Sample(p)
	if !ok {
		return 0
	}
	return v
}

// intensity returns the Lambertian shading factor at p.
func (sh *shader) intensity(vol *volume.Sampler, p geom.Vec3) float64 {
	var g geom.Vec3
	for a := 0; a < 3; a++ {
		var e geom.Vec3
		e = e.SetComp(a, gradStep)
		g = g.SetComp(a, sh.clampedSample(vol, p.Add(e))-sh.clampedSample(vol, p.Sub(e)))
	}
	l := g.Len()
	if !(l >= 1e-12) {
		// Flat region, or a gradient through a NaN voxel: neutral light.
		return sh.ambient + sh.diffuse*0.5
	}
	// The normal points against the gradient (toward lower values, i.e.
	// out of dense features); light contributes when it hits the front.
	n := g.Mul(-1 / l)
	lam := n.Dot(sh.light.Mul(-1))
	if lam < 0 {
		lam = -lam // two-sided lighting, standard for volumes
	}
	return sh.ambient + sh.diffuse*lam
}

// shade scales the color (not alpha) of a classified sample at p.
func (sh *shader) shade(vol *volume.Sampler, p geom.Vec3, r, g, b float32) (float32, float32, float32) {
	i := sh.intensity(vol, p)
	return float32(math.Min(1, float64(r)*i)), float32(math.Min(1, float64(g)*i)), float32(math.Min(1, float64(b)*i))
}
