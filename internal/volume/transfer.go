package volume

import (
	"math"
	"sort"

	"bgpvr/internal/img"
)

// TransferPoint is one control point of a transfer function: at scalar
// value V (in [0, 1]) the classified color is (R, G, B) with opacity A.
// Colors are straight (non-premultiplied); Classify premultiplies.
type TransferPoint struct {
	V          float64
	R, G, B, A float64
}

// Transfer maps normalized scalar values to color and opacity by
// piecewise-linear interpolation between control points. It is the
// "transfer function" of the paper's rendering stage.
type Transfer struct {
	pts []TransferPoint
	// segs[i] is the linear piece over (pts[i].V, pts[i+1].V]: its lower
	// control point and the differences to the upper one, so a lookup
	// subtracts nothing that does not depend on the value.
	segs []transferSeg
}

type transferSeg struct {
	lo                 TransferPoint // lower control point
	hi                 float64       // upper control point's V
	dv, dr, dg, db, da float64       // upper minus lower
}

// NewTransfer builds a transfer function from control points, which are
// sorted by V. At least one point is required, and every colour channel
// must be +0 or above: a negative one (−0 too) panics, as the one input
// whose classification would lose the sign of a zero channel to Classify's
// zero accumulator.
func NewTransfer(pts ...TransferPoint) *Transfer {
	if len(pts) == 0 {
		panic("volume: NewTransfer requires control points")
	}
	for _, p := range pts {
		for _, c := range [3]float64{p.R, p.G, p.B} {
			if math.Signbit(c) || c != c {
				panic("volume: NewTransfer colour channels must be +0 or above")
			}
		}
	}
	sorted := append([]TransferPoint(nil), pts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].V < sorted[j].V })
	t := &Transfer{pts: sorted, segs: make([]transferSeg, len(sorted)-1)}
	for i := range t.segs {
		p, q := sorted[i], sorted[i+1]
		t.segs[i] = transferSeg{lo: p, hi: q.V,
			dv: q.V - p.V, dr: q.R - p.R, dg: q.G - p.G, db: q.B - p.B, da: q.A - p.A}
	}
	return t
}

// at is the segment's straight-alpha classification of v, a value in
// (lo.V, hi]: the one segment body. It is small enough to inline into
// the loop that runs it.
func (s *transferSeg) at(v float64) (r, g, b, a float64) {
	w := (v - s.lo.V) / s.dv
	return s.lo.R + w*s.dr, s.lo.G + w*s.dg, s.lo.B + w*s.db, s.lo.A + w*s.da
}

// Lookup returns the straight-alpha classification of scalar v. Values
// at or beyond the end control points take those points' classification;
// NaN (a missing value in a data file) is transparent.
func (t *Transfer) Lookup(v float64) (r, g, b, a float64) {
	r, g, b, a, _ = t.lookup(v, 0)
	return r, g, b, a
}

// lookup is the one full search: Lookup given the segment a previous
// value landed in (0 when there is none), returning the segment this one
// did (hint when v has none).
func (t *Transfer) lookup(v float64, hint int) (r, g, b, a float64, seg int) {
	pts := t.pts
	if v <= pts[0].V {
		p := &pts[0]
		return p.R, p.G, p.B, p.A, hint
	}
	if v >= pts[len(pts)-1].V {
		p := &pts[len(pts)-1]
		return p.R, p.G, p.B, p.A, hint
	}
	if v != v {
		return 0, 0, 0, 0, hint
	}
	// v lies strictly inside the control range, so its segment is the
	// first whose upper point reaches v, and that segment has dv > 0 (its
	// lower point is below v): the same piece and the same arithmetic as
	// a binary search for the first control point >= v. Every earlier
	// segment ends at or before this one's lower point, so a segment with
	// lo.V < v <= hi is that first one: the hint is tried before the
	// forward scan, which finds the same segment in more steps.
	s := &t.segs[hint]
	if !(s.lo.V < v && v <= s.hi) {
		hint = 0
		for t.segs[hint].hi < v {
			hint++
		}
		s = &t.segs[hint]
	}
	r, g, b, a = s.at(v)
	return r, g, b, a, hint
}

// Classify returns the premultiplied RGBA sample for scalar v with the
// opacity scaled for step length ds relative to a unit reference step
// (opacity correction: a' = 1-(1-a)^ds). It is ClassifyOver's one-value
// case from a zero accumulator: img.Over(0, s) is s, bit for bit, but
// for a −0 channel, which becomes +0 — and only a negative control
// colour, which NewTransfer rejects, classifies to one.
func (t *Transfer) Classify(v, ds float64) img.RGBA {
	var seg int
	s, _ := t.ClassifyOver(img.RGBA{}, []float64{v}, ds, &seg, nil)
	return s
}

// ClassifyOver is Classify and img.Over along a ray: it classifies vals
// in order and accumulates each non-transparent sample behind acc (the
// traversal is front to back), stopping after the one that brings acc's
// opacity to exactly 1: from there Over adds 0·s to each channel, which
// changes no bit of a finite pixel, so the values left would leave acc as
// it is. It returns acc and how many of vals it consumed. *seg carries the segment the last value landed in from call
// to call; consecutive samples of a ray, and of neighbouring rays, mostly
// share it. shade, when non-nil, recolours sample i before it is
// accumulated; the caller keeps it from escaping so that a cast
// allocates nothing per ray.
//
// The loop owns the opacity correction and the premultiply, and it makes
// no call per sample unless the value leaves the hinted segment: Go's
// register ABI has no callee-saved float registers, so a call would spill
// and reload the accumulator and the step around it. A value
// strictly inside the hinted segment, lo.V < v < hi, is that segment's
// (see lookup), and is classified by its inlined body; everything else —
// the ends, NaN, a value on a control point, another segment — goes
// through lookup's full search.
func (t *Transfer) ClassifyOver(acc img.RGBA, vals []float64, ds float64, seg *int, shade func(i int, s img.RGBA) img.RGBA) (img.RGBA, int) {
	hint, n := *seg, len(vals)
	segs := t.segs
	for i, v := range vals {
		var r, g, b, a float64
		if hint < len(segs) && segs[hint].lo.V < v && v < segs[hint].hi {
			r, g, b, a = segs[hint].at(v)
		} else {
			r, g, b, a, hint = t.lookup(v, hint)
		}
		if a <= 0 {
			continue // transparent
		}
		if a > 1 {
			a = 1
		}
		a = 1 - pow1m(a, ds)
		s := img.RGBA{R: float32(r * a), G: float32(g * a), B: float32(b * a), A: float32(a)}
		if s == (img.RGBA{}) {
			continue
		}
		if shade != nil {
			s = shade(i, s)
		}
		acc = img.Over(acc, s) // acc is in front of s
		if acc.A >= 1 {
			n = i + 1
			break
		}
	}
	*seg = hint
	return acc, n
}

// pow1m computes (1-a)^ds, short-circuiting the common unit-step case.
// It stays small enough to inline into ClassifyOver; every other step
// length is powStep's.
func pow1m(a, ds float64) float64 {
	base := 1 - a
	if ds == 1 {
		return base
	}
	return powStep(base, ds)
}

// powStep is math.Pow(base, ds), bit for bit. For an integer ds in
// [2, 64] it runs the square-and-multiply loop math.Pow runs on Frexp's
// significand, on base itself: Pow's doublings and final Ldexp only move
// the exponent, which commutes with rounding while every value is
// normal. A result in [0x1p-1000, 1] means |base| <= 1, so every partial
// product and factor was at least as large, and normal (DESIGN.md, "The
// opacity correction without math.Pow"). Anything else is math.Pow's.
func powStep(base, ds float64) float64 {
	if ds >= 2 && ds <= 64 {
		if n := int(ds); float64(n) == ds {
			r, x := 1.0, base
			for ; n > 0; n >>= 1 {
				if n&1 != 0 {
					r *= x
				}
				x *= x
			}
			if r >= 0x1p-1000 && r <= 1 {
				return r
			}
		}
	}
	return math.Pow(base, ds)
}

// MaxOpacityIn returns the exact maximum opacity the transfer function
// takes over the closed value interval [lo, hi]. For a piecewise-linear
// function the maximum is attained at an endpoint or at a control point
// inside the interval, so the computation is exact: an opacity mask
// built on it (render.BuildOpacityMask) never marks a contributing cell
// transparent.
func (t *Transfer) MaxOpacityIn(lo, hi float64) float64 {
	if hi < lo {
		lo, hi = hi, lo
	}
	_, _, _, m := t.Lookup(lo)
	if _, _, _, a := t.Lookup(hi); a > m {
		m = a
	}
	for _, p := range t.pts {
		if p.V > lo && p.V < hi && p.A > m {
			m = p.A
		}
	}
	return m
}

// SupernovaTransfer is the default transfer function used for the
// synthetic supernova's velocity fields: blue for negative velocity
// (v < 0.5), red-orange for positive, transparent near zero — similar in
// spirit to Fig 1 of the paper.
func SupernovaTransfer() *Transfer {
	return NewTransfer(
		TransferPoint{V: 0.00, R: 0.05, G: 0.15, B: 0.85, A: 0.85},
		TransferPoint{V: 0.25, R: 0.15, G: 0.45, B: 0.95, A: 0.35},
		TransferPoint{V: 0.45, R: 0.60, G: 0.80, B: 1.00, A: 0.02},
		TransferPoint{V: 0.50, R: 1.00, G: 1.00, B: 1.00, A: 0.00},
		TransferPoint{V: 0.55, R: 1.00, G: 0.90, B: 0.55, A: 0.02},
		TransferPoint{V: 0.75, R: 1.00, G: 0.55, B: 0.10, A: 0.35},
		TransferPoint{V: 1.00, R: 0.95, G: 0.10, B: 0.05, A: 0.85},
	)
}

// GrayRampTransfer is a simple diagnostic transfer function: opacity and
// brightness ramp linearly with the scalar.
func GrayRampTransfer(maxOpacity float64) *Transfer {
	return NewTransfer(
		TransferPoint{V: 0, R: 0, G: 0, B: 0, A: 0},
		TransferPoint{V: 1, R: 1, G: 1, B: 1, A: maxOpacity},
	)
}
