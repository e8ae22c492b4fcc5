package volume

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"bgpvr/internal/geom"
	"bgpvr/internal/grid"
	"bgpvr/internal/img"
)

// referenceSample is Field.Sample as it stood before the Sampler: per
// point bounds test, clamps, eight f.At index computations, seven
// lerps. The sampler must reproduce its bits.
func referenceSample(f *Field, p geom.Vec3) (float64, bool) {
	lo, hi := f.Ext.Lo, f.Ext.Hi
	if p.X < float64(lo.X) || p.X > float64(hi.X-1) ||
		p.Y < float64(lo.Y) || p.Y > float64(hi.Y-1) ||
		p.Z < float64(lo.Z) || p.Z > float64(hi.Z-1) {
		return 0, false
	}
	x0, y0, z0 := int(p.X), int(p.Y), int(p.Z)
	x0, y0, z0 = max(min(x0, hi.X-2), lo.X), max(min(y0, hi.Y-2), lo.Y), max(min(z0, hi.Z-2), lo.Z)
	x1, y1, z1 := x0+1, y0+1, z0+1
	if x1 >= hi.X {
		x1 = x0
	}
	if y1 >= hi.Y {
		y1 = y0
	}
	if z1 >= hi.Z {
		z1 = z0
	}
	wx, wy, wz := p.X-float64(x0), p.Y-float64(y0), p.Z-float64(z0)
	c000, c100 := float64(f.At(x0, y0, z0)), float64(f.At(x1, y0, z0))
	c010, c110 := float64(f.At(x0, y1, z0)), float64(f.At(x1, y1, z0))
	c001, c101 := float64(f.At(x0, y0, z1)), float64(f.At(x1, y0, z1))
	c011, c111 := float64(f.At(x0, y1, z1)), float64(f.At(x1, y1, z1))
	c00 := c000*(1-wx) + c100*wx
	c10 := c010*(1-wx) + c110*wx
	c01 := c001*(1-wx) + c101*wx
	c11 := c011*(1-wx) + c111*wx
	c0 := c00*(1-wy) + c10*wy
	c1 := c01*(1-wy) + c11*wy
	return c0*(1-wz) + c1*wz, true
}

func TestSamplerMatchesReferenceBitForBit(t *testing.T) {
	dims := grid.I(12, 9, 7)
	exts := []grid.Extent{
		grid.WholeGrid(dims),
		grid.Ext(grid.I(3, 2, 1), grid.I(9, 8, 6)),   // interior block with ghost
		grid.Ext(grid.I(5, 0, 0), grid.I(6, 9, 7)),   // single plane in x
		grid.Ext(grid.I(0, 4, 0), grid.I(12, 5, 7)),  // single plane in y
		grid.Ext(grid.I(0, 0, 6), grid.I(12, 9, 7)),  // single plane in z
		grid.Ext(grid.I(2, 3, 4), grid.I(3, 4, 5)),   // one point
		grid.Ext(grid.I(10, 7, 5), grid.I(12, 9, 7)), // two points per axis, at the volume's corner
	}
	rng := rand.New(rand.NewSource(7))
	var signedZeros int
	for _, ext := range exts {
		f := NewField(dims, ext)
		for i := range f.Data {
			f.Data[i] = rng.Float32()
			if rng.Intn(3) == 0 {
				// Zeros of both signs, so that a sample whose weights
				// are zero keeps or loses a −0 the way the reference does.
				f.Data[i] = float32(math.Copysign(0, float64(1-2*rng.Intn(2))))
			}
		}
		s := f.Sampler()
		lo, n := ext.Lo, ext.Size()
		coord := func(l, n int) float64 {
			switch rng.Intn(7) {
			case 0:
				return float64(l + n - 1) // exact upper boundary
			case 1:
				return float64(l + rng.Intn(n)) // a lattice plane
			case 2:
				return float64(l) + float64(n-1)*rng.Float64() + (rng.Float64()-0.5)*3 // may fall outside
			case 3:
				return math.Nextafter(float64(l+n-1), math.Inf(1-2*rng.Intn(2))) // one ulp off the boundary
			case 4: // the lower boundary: ±0 on a Lo = 0 face
				if l != 0 {
					return float64(l)
				}
				signedZeros++
				return math.Copysign(0, float64(1-2*rng.Intn(2)))
			default:
				return float64(l) + float64(n-1)*rng.Float64()
			}
		}
		inside := 0
		for i := 0; i < 4000; i++ {
			p := geom.V(coord(lo.X, n.X), coord(lo.Y, n.Y), coord(lo.Z, n.Z))
			want, wantOK := referenceSample(f, p)
			got, ok := s.Sample(p)
			fv, fok := f.Sample(p)
			if ok != wantOK || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("ext %v p %v: sampler (%v, %v), reference (%v, %v)", ext, p, got, ok, want, wantOK)
			}
			if fok != wantOK || math.Float64bits(fv) != math.Float64bits(want) {
				t.Fatalf("ext %v p %v: Field.Sample (%v, %v), reference (%v, %v)", ext, p, fv, fok, want, wantOK)
			}
			if s.Contains(p) != wantOK {
				t.Fatalf("ext %v p %v: Contains %v, reference ok %v", ext, p, s.Contains(p), wantOK)
			}
			if ok {
				inside++
			}
		}
		if inside < 500 {
			t.Errorf("ext %v: only %d of 4000 points inside; the test is not testing", ext, inside)
		}
	}
	if signedZeros < 1000 {
		t.Errorf("%d signed-zero coordinates; the test is not testing", signedZeros)
	}
}

// referenceLookup is Transfer.Lookup as it stood before the forward
// scan: a binary search for the first control point >= v.
func referenceLookup(pts []TransferPoint, v float64) (r, g, b, a float64) {
	if v <= pts[0].V {
		p := pts[0]
		return p.R, p.G, p.B, p.A
	}
	if v >= pts[len(pts)-1].V {
		p := pts[len(pts)-1]
		return p.R, p.G, p.B, p.A
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].V >= v })
	p, q := pts[i-1], pts[i]
	w := 0.0
	if q.V > p.V {
		w = (v - p.V) / (q.V - p.V)
	}
	return p.R + w*(q.R-p.R), p.G + w*(q.G-p.G), p.B + w*(q.B-p.B), p.A + w*(q.A-p.A)
}

func TestLookupMatchesBinarySearchBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pt := func(v float64) TransferPoint {
		return TransferPoint{V: v, R: rng.Float64(), G: rng.Float64(), B: rng.Float64(), A: rng.Float64()}
	}
	tfs := []*Transfer{
		SupernovaTransfer(),
		GrayRampTransfer(0.7),
		NewTransfer(pt(0.4)), // one point
		// Duplicate V: a step in the interior, and one at each end.
		NewTransfer(pt(0), pt(0.3), pt(0.3), pt(0.8), pt(1)),
		NewTransfer(pt(0.1), pt(0.1), pt(0.5), pt(0.5), pt(0.5), pt(0.9), pt(0.9)),
		// Zero colour channels, an opacity whose correction rounds to
		// zero, and one above 1.
		NewTransfer(TransferPoint{V: 0.2, A: 0.5}, TransferPoint{V: 0.6, R: 1, A: 1e-300}, TransferPoint{V: 0.9, G: 0.5, A: 2}),
	}
	for ti, tf := range tfs {
		vals := []float64{math.Inf(-1), -1, 0, 1, 2, math.Inf(1)}
		for _, p := range tf.pts {
			vals = append(vals, p.V, math.Nextafter(p.V, 2), math.Nextafter(p.V, -1))
		}
		for i := 0; i < 5000; i++ {
			vals = append(vals, rng.Float64()*1.2-0.1)
		}
		for _, v := range vals {
			r, g, b, a := tf.Lookup(v)
			wr, wg, wb, wa := referenceLookup(tf.pts, v)
			got, want := [4]float64{r, g, b, a}, [4]float64{wr, wg, wb, wa}
			for c := range got {
				if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
					t.Fatalf("transfer %d v=%v: got %v, binary search %v", ti, v, got, want)
				}
			}
			// Classify, ClassifyOver's one-value case, against the
			// classification as it stood before ClassifyOver took its body.
			for _, ds := range []float64{1, 0.5, 16} {
				if got, want := tf.Classify(v, ds), referenceClassify(tf.pts, v, ds); !sameRGBA(got, want) {
					t.Fatalf("transfer %d v=%v ds=%v: Classify %+v, reference %+v", ti, v, ds, got, want)
				}
			}
		}
	}
}

// sameRGBA compares two pixels bit for bit: −0 is not +0.
func sameRGBA(a, b img.RGBA) bool {
	return math.Float32bits(a.R) == math.Float32bits(b.R) && math.Float32bits(a.G) == math.Float32bits(b.G) &&
		math.Float32bits(a.B) == math.Float32bits(b.B) && math.Float32bits(a.A) == math.Float32bits(b.A)
}

// A negative colour channel, −0 included, would classify to a −0 channel
// that Classify's zero accumulator turns into +0; NewTransfer rejects it,
// and NaN with it. +0 and above are accepted.
func TestNewTransferRejectsNegativeColour(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, c := range []float64{negZero, -1e-300, -0.5, math.Inf(-1), math.NaN()} {
		for ch := 0; ch < 3; ch++ {
			p := TransferPoint{V: 0.5, R: 0.2, G: 0.2, B: 0.2, A: 0.5}
			*[3]*float64{&p.R, &p.G, &p.B}[ch] = c
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("NewTransfer accepted colour channel %d = %v", ch, c)
					}
				}()
				NewTransfer(TransferPoint{V: 0, R: 1, G: 1, B: 1, A: 1}, p)
			}()
		}
	}
	tf := NewTransfer(TransferPoint{V: 0}, TransferPoint{V: 1, R: 1, G: 0, B: math.Inf(1), A: 1})
	if s := tf.Classify(1, 1); math.Signbit(float64(s.G)) || s.R != 1 || !math.IsInf(float64(s.B), 1) || s.A != 1 {
		t.Errorf("Classify(1, 1) = %+v, want (1, +0, +Inf, 1)", s)
	}
}

// A NaN (a missing value in a data file) used to index past the control
// points and panic; it is transparent.
func TestNaNClassifiesTransparent(t *testing.T) {
	for _, tf := range []*Transfer{SupernovaTransfer(), GrayRampTransfer(1), NewTransfer(TransferPoint{V: 0.5, A: 1})} {
		if r, g, b, a := tf.Lookup(math.NaN()); r != 0 || g != 0 || b != 0 || a != 0 {
			t.Errorf("Lookup(NaN) = %v %v %v %v, want transparent", r, g, b, a)
		}
		for _, ds := range []float64{1, 0.5} {
			if s := tf.Classify(math.NaN(), ds); s != (img.RGBA{}) {
				t.Errorf("Classify(NaN, %v) = %+v, want transparent", ds, s)
			}
		}
	}
}

// InterpRay writes, for each sample of a run, the bits the pre-sampler
// Field.Sample returns at Ray.At(float64(k)*step), and so does Interp,
// InterpRay's one-point case, at the same point: each is held to the
// reference, not to the other.
func TestInterpRayMatchesInterpBitForBit(t *testing.T) {
	dims := grid.I(12, 9, 7)
	exts := []grid.Extent{
		grid.WholeGrid(dims),
		grid.Ext(grid.I(3, 2, 1), grid.I(9, 8, 6)),  // interior block with ghost
		grid.Ext(grid.I(5, 0, 0), grid.I(6, 9, 7)),  // single plane in x
		grid.Ext(grid.I(0, 4, 0), grid.I(12, 5, 7)), // single plane in y
		grid.Ext(grid.I(0, 0, 6), grid.I(12, 9, 7)), // single plane in z
		grid.Ext(grid.I(2, 3, 4), grid.I(3, 4, 5)),  // one point
	}
	rng := rand.New(rand.NewSource(24))
	for _, ext := range exts {
		f := NewField(dims, ext)
		for i := range f.Data {
			f.Data[i] = rng.Float32()
		}
		s := f.Sampler()
		b := f.Bounds()
		size := b.Size()
		var runs, onTop int
		check := func(ray geom.Ray, step float64) {
			// The run of samples inside the field, by testing every k
			// of a generous range.
			k0, k1 := int64(0), int64(-1)
			for k := int64(-8); k <= int64(400/step)+8; k++ {
				if s.Contains(ray.At(float64(k) * step)) {
					if k1 < k0 {
						k0 = k
					}
					k1 = k
				}
			}
			if k1 < k0 {
				return
			}
			runs++
			// Whole, and cut at every length a chunked walk might use.
			for _, n := range []int64{k1 - k0 + 1, 1, 7, 8, 9} {
				n = min(n, k1-k0+1)
				out := make([]float64, n)
				s.InterpRay(ray.Origin, ray.Dir, step, k1-n+1, out)
				for i, got := range out {
					p := ray.At(float64(k1-n+1+int64(i)) * step)
					ref, ok := referenceSample(f, p)
					if !ok || math.Float64bits(got) != math.Float64bits(ref) {
						t.Fatalf("ext %v ray %+v step %v sample %d of %d: InterpRay %v, reference (%v, %v)", ext, ray, step, i, n, got, ref, ok)
					}
					if v := s.Interp(p); math.Float64bits(v) != math.Float64bits(ref) {
						t.Fatalf("ext %v ray %+v step %v sample %d: Interp %v, reference %v", ext, ray, step, i, v, ref)
					}
					if p.X == b.Max.X || p.Y == b.Max.Y || p.Z == b.Max.Z {
						onTop++
					}
				}
			}
		}
		for _, step := range []float64{1, 0.7, 1.0 / 3, 16} {
			for i := 0; i < 300; i++ {
				in := geom.V(b.Min.X+size.X*rng.Float64(), b.Min.Y+size.Y*rng.Float64(), b.Min.Z+size.Z*rng.Float64())
				dir := geom.V(rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1).Norm()
				// Flat on the axes the extent is a single plane of (or no
				// sample of a general ray would be inside it), and on a
				// random axis now and then.
				for a := 0; a < 3; a++ {
					if size.Comp(a) == 0 || rng.Intn(8) == 0 {
						dir = dir.SetComp(a, 0)
					}
				}
				if dir == (geom.Vec3{}) {
					dir = geom.V(0, 0, 1)
				}
				dir = dir.Norm()
				check(geom.Ray{Origin: in.Sub(dir.Mul(float64(rng.Intn(40)))), Dir: dir}, step)
			}
			// Axis-parallel rays in the upper boundary planes, from an
			// integer origin: their samples sit on lattice points of the
			// field's last planes.
			for a := 0; a < 3; a++ {
				var dir geom.Vec3
				dir = dir.SetComp(a, 1)
				o := b.Max.SetComp(a, b.Min.Comp(a)-32)
				check(geom.Ray{Origin: o, Dir: dir}, step)
			}
		}
		if runs < 400 || onTop < 10 {
			t.Errorf("ext %v: %d runs, %d samples on the upper boundary; the test is not testing", ext, runs, onTop)
		}
	}
}

// referenceClassify is Transfer.Classify as it stood before the run
// form, on the binary-search lookup above.
func referenceClassify(pts []TransferPoint, v, ds float64) img.RGBA {
	if v != v {
		return img.RGBA{}
	}
	r, g, b, a := referenceLookup(pts, v)
	if a <= 0 {
		return img.RGBA{}
	}
	if a > 1 {
		a = 1
	}
	if ds == 1 {
		a = 1 - (1 - a)
	} else {
		a = 1 - math.Pow(1-a, ds)
	}
	return img.RGBA{R: float32(r * a), G: float32(g * a), B: float32(b * a), A: float32(a)}
}

// ClassifyOver is a fold of the reference Classify and img.Over over its
// values: the same pixel bits and the same count, whatever segment the
// previous value (or the previous call, on any earlier sequence) left
// behind, with and without a shading hook, and stopping after the value
// that brings the opacity to exactly 1. Each sequence also runs with an
// opaque value (A = 1, which classifies to opacity 1 at any step and makes
// the accumulated opacity exactly 1) written over its first, middle and
// last value, so that the stop falls on each of them.
func TestClassifyOverMatchesFoldBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	pt := func(v float64) TransferPoint {
		return TransferPoint{V: v, R: rng.Float64(), G: rng.Float64(), B: rng.Float64(), A: 0.4 * rng.Float64()}
	}
	tfs := []*Transfer{
		SupernovaTransfer(),
		GrayRampTransfer(0.7),
		NewTransfer(pt(0.4)), // one point: no segment at all
		NewTransfer(pt(0), pt(0.3), pt(0.3), pt(0.8), pt(1)),
		NewTransfer(pt(0.1), pt(0.1), pt(0.5), pt(0.5), pt(0.5), pt(0.9), pt(0.9)),
		NewTransfer(pt(0), TransferPoint{V: 0.5, R: 0.9, G: 0.5, B: 0.1, A: 1}, pt(1)),
		GrayRampTransfer(1),
	}
	shade := func(i int, s img.RGBA) img.RGBA {
		k := float32(i%3+1) / 4
		return img.RGBA{R: s.R * k, G: s.G * k, B: s.B * k, A: s.A}
	}
	fold := func(tf *Transfer, vals []float64, ds float64, shaded bool) (img.RGBA, int) {
		var acc img.RGBA
		for i, v := range vals {
			s := referenceClassify(tf.pts, v, ds)
			if s.A == 0 && s.R == 0 && s.G == 0 && s.B == 0 {
				continue
			}
			if shaded {
				s = shade(i, s)
			}
			acc = img.Over(acc, s)
			if acc.A >= 1 {
				return acc, i + 1
			}
		}
		return acc, len(vals)
	}
	var stoppedFirst, stoppedMiddle, stoppedLast, ranOut int
	for ti, tf := range tfs {
		var carried int      // the hint the calls below hand on, across sequences
		opaque := math.NaN() // a value tf makes opaque, if it has one
		for _, p := range tf.pts {
			if p.A >= 1 {
				opaque = p.V
			}
		}
		// At, just above and just below every control point, beyond both
		// ends, NaN — then sequences that sweep up and down across the
		// segments, slowly (the hint holds) and in jumps (it misses).
		special := []float64{math.Inf(-1), -1, 2, math.Inf(1), math.NaN()}
		for _, p := range tf.pts {
			special = append(special, p.V, math.Nextafter(p.V, 2), math.Nextafter(p.V, -1))
		}
		var seqs [][]float64
		seqs = append(seqs, special)
		for n := 0; n < 200; n++ {
			vals := make([]float64, 1+rng.Intn(24))
			v, dv := rng.Float64(), (rng.Float64()-0.5)*0.2
			for i := range vals {
				switch rng.Intn(12) {
				case 0:
					vals[i] = special[rng.Intn(len(special))]
					continue
				case 1:
					v = rng.Float64()*1.2 - 0.1 // a jump
				case 2:
					dv = -dv // turn round
				}
				v += dv
				vals[i] = v
			}
			seqs = append(seqs, vals)
		}
		for _, vals := range seqs {
			variants := [][]float64{vals}
			if opaque == opaque {
				for _, at := range []int{0, len(vals) / 2, len(vals) - 1} {
					v := append([]float64(nil), vals...)
					v[at] = opaque
					variants = append(variants, v)
				}
			}
			for _, vals := range variants {
				for _, ds := range []float64{1, 0.5, 16} {
					for _, shaded := range []bool{false, true} {
						want, wantN := fold(tf, vals, ds, shaded)
						hook := shade
						if !shaded {
							hook = nil
						}
						// In one call from every possible stale hint, and
						// cut in two calls that hand the hint and the
						// pixel on, as a chunked walk does.
						for seg := 0; seg < max(1, len(tf.segs)); seg++ {
							hint := seg
							got, n := tf.ClassifyOver(img.RGBA{}, vals, ds, &hint, hook)
							if !sameRGBA(got, want) || n != wantN {
								t.Fatalf("transfer %d vals %v ds %v shaded %v hint %d: (%+v, %d), fold (%+v, %d)", ti, vals, ds, shaded, seg, got, n, want, wantN)
							}
						}
						cut := len(vals) / 2
						got, n := tf.ClassifyOver(img.RGBA{}, vals[:cut], ds, &carried, hook)
						if n == cut && !(got.A >= 1) {
							var m int
							rest := hook
							if shaded {
								rest = func(i int, s img.RGBA) img.RGBA { return shade(cut+i, s) }
							}
							got, m = tf.ClassifyOver(got, vals[cut:], ds, &carried, rest)
							n += m
						}
						if !sameRGBA(got, want) || n != wantN {
							t.Fatalf("transfer %d vals %v ds %v shaded %v cut at %d: (%+v, %d), fold (%+v, %d)", ti, vals, ds, shaded, cut, got, n, want, wantN)
						}
						switch {
						case want.A > 1:
							t.Fatalf("transfer %d vals %v ds %v: opacity %v above 1", ti, vals, ds, want.A)
						case !(want.A >= 1):
							ranOut++
						case wantN == 1:
							stoppedFirst++
						case wantN == len(vals):
							stoppedLast++
						default:
							stoppedMiddle++
						}
					}
				}
			}
		}
	}
	if stoppedFirst < 100 || stoppedMiddle < 100 || stoppedLast < 100 || ranOut < 100 {
		t.Errorf("opacity 1 reached on the first value %d times, a middle one %d, the last %d, never %d: the test needs all four",
			stoppedFirst, stoppedMiddle, stoppedLast, ranOut)
	}
}
