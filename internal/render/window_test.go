package render

import (
	"math"
	"math/rand"
	"testing"

	"bgpvr/internal/geom"
	"bgpvr/internal/grid"
	"bgpvr/internal/img"
	"bgpvr/internal/volume"
)

// windowCase is one orthographic cast the window tests check row by row:
// a block (own nil: a serial cast) of a small volume, a field over its
// ghost extent, and the job over the block's projected rectangle.
type windowCase struct {
	cam  *Ortho
	dims grid.IVec3
	own  *grid.Extent
	step float64
	// ghost is how far the field reaches past the owned extent; negative
	// values end it inside the extent, which only a field that does not
	// cover its block has.
	ghost int
}

// counts tallies what the checked rows exercised: rects whose corner
// bracket holds one sample or none, rows that search their own bracket
// and find it non-empty, and rows and columns as below.
type windowCounts struct {
	rectOne, rectNone, rowBrackets                                     int
	rows, oneSample, oneSampleCols, outside, inside, sampled, narrowed int
}

// check casts every row of the case through castRows and compares it,
// pixel bits and samples, with the per-pixel path — a block's through
// the spans castRows records, as RenderBlock's is read, and a serial
// cast's, which has none, whole; and checks the
// window itself against trim: every column outside it has an empty
// trim, every trim lies inside [kA, kB], and on a one-sample row
// (oneSample: kA == kB, on the rays) every column inside takes sample
// kA and has trim [kA, kA], which is the sample castRows casts there
// without intersecting or trimming the ray.
// It checks the rect's bracket [KA, KB] of the four corner rays too:
// every trim of the block lies inside it, so KA > KB leaves every trim
// empty, and so does every non-empty bracket a row finds on its own.
func (c windowCase) check(t *testing.T, multi bool, n *windowCounts) {
	t.Helper()
	tf := volume.SupernovaTransfer()
	sn := volume.Supernova{Seed: 11, Time: 0.7}
	fieldExt, box := grid.WholeGrid(c.dims), geom.AABB{}
	rect := img.Rect{X1: c.cam.basis.w, Y1: c.cam.basis.h}
	if c.own != nil {
		g := c.ghost
		fieldExt = grid.Ext(
			grid.I(max(c.own.Lo.X-g, 0), max(c.own.Lo.Y-g, 0), max(c.own.Lo.Z-g, 0)),
			grid.I(min(c.own.Hi.X+g, c.dims.X), min(c.own.Hi.Y+g, c.dims.Y), min(c.own.Hi.Z+g, c.dims.Z)))
		box, rect = ownedBounds(*c.own), ProjectedRect(c.cam, *c.own)
	}
	if fieldExt.Empty() || rect.Empty() {
		return
	}
	fs := []*volume.Field{sn.Generate(volume.VarVelocityX, c.dims, fieldExt)}
	if c.own == nil {
		box = fs[0].Bounds()
	}
	j := castJob{tf: tf, cam: c.cam, box: box, rect: rect, stride: rect.W(),
		pix: make([]img.RGBA, rect.NumPixels())}
	if multi {
		fs = append(fs, sn.Generate(volume.VarDensity, c.dims, fieldExt))
		j.cls = ModulatedClassifier(tf, 0.2, 0.9)
	}
	if c.own != nil {
		j.spans = make([]RowSpan, rect.H())
	}
	j.plan = newCastPlan(fs, c.own, Config{Step: c.step})
	j.setOrtho(c.cam)
	defer colTerms.Put(j.cols)
	for i := range j.pix {
		j.pix[i] = img.RGBA{R: float32(math.NaN())} // what castRows leaves alone shows
	}
	rkA, rkB := j.rectBracket()
	switch {
	case rkA == rkB:
		n.rectOne++
	case rkA > rkB:
		n.rectNone++
	}
	runs := make([][chunk]float64, len(fs))
	for y := rect.Y0; y < rect.Y1; y++ {
		n.rows++
		rowTerm := c.cam.rowTerm(float64(y) + 0.5)
		xa, xb, kA, kB := j.window(rowTerm)
		if a, b := j.bracket([]geom.Vec3{j.orthoOrigin(rect.X0, rowTerm), j.orthoOrigin(rect.X1-1, rowTerm)}); a <= b {
			n.rowBrackets++
			if a < rkA || b > rkB {
				t.Fatalf("%+v row %d: the row's bracket [%d, %d] is not inside the rect's [%d, %d]", c, y, a, b, rkA, rkB)
			}
		}
		if xa < rect.X0 || xb > rect.X1 || xa > xb {
			t.Fatalf("%+v row %d: window [%d, %d) outside the rect %v", c, y, xa, xb, rect)
		}
		if xb-xa < rect.W() {
			n.narrowed++
		}
		one := oneSample(kA, kB)
		if one {
			n.oneSample++
		}
		got := j.castRows(y, y+1)
		var want int64
		var seg int // carried along the row, as castRows carries it
		for x := rect.X0; x < rect.X1; x++ {
			ray := c.cam.Ray(float64(x)+0.5, float64(y)+0.5)
			k0, k1 := int64(0), int64(-1)
			if t0, t1, ok := j.dirBox.Intersect(ray.Origin); ok {
				k0, k1 = j.plan.trim(ray, t0, t1)
			}
			inside := xa <= x && x < xb
			switch {
			case rkA > rkB && k0 <= k1:
				t.Fatalf("%+v row %d column %d: trim [%d, %d] in a rect whose bracket [%d, %d] is empty", c, y, x, k0, k1, rkA, rkB)
			case k0 <= k1 && (k0 < rkA || k1 > rkB):
				t.Fatalf("%+v row %d column %d: trim [%d, %d] outside the rect's bracket [%d, %d]", c, y, x, k0, k1, rkA, rkB)
			case !inside && k0 <= k1:
				t.Fatalf("%+v row %d: column %d is outside the window [%d, %d) but trim is [%d, %d]", c, y, x, xa, xb, k0, k1)
			case k0 <= k1 && (k0 < kA || k1 > kB):
				t.Fatalf("%+v row %d column %d: trim [%d, %d] outside the window's samples [%d, %d]", c, y, x, k0, k1, kA, kB)
			case inside && one && !j.plan.takes(ray.At(float64(kA)*c.step)):
				t.Fatalf("%+v row %d: column %d is inside the one-sample window [%d, %d) but does not take sample %d (trim [%d, %d])", c, y, x, xa, xb, kA, k0, k1)
			case inside && one && (k0 != kA || k1 != kA):
				t.Fatalf("%+v row %d column %d: trim [%d, %d] in a window of the one sample %d", c, y, x, k0, k1, kA)
			}
			if inside && one {
				n.oneSampleCols++
			}
			if inside {
				n.inside++
			} else {
				n.outside++
			}
			var px img.RGBA
			if k0 <= k1 {
				n.sampled++
				var s int64
				if multi {
					px, s = j.castMulti(ray, k0, k1, runs, &seg)
				} else {
					px, s = j.cast(ray, k0, k1, &seg)
				}
				want += s
			}
			p := j.pix[(y-rect.Y0)*rect.W()+x-rect.X0]
			if j.spans != nil {
				if sp := j.spans[y-rect.Y0]; x-rect.X0 < int(sp.Lo) || x-rect.X0 >= int(sp.Hi) {
					p = img.RGBA{} // unspecified outside the span: read as transparent
				}
			}
			if !samePixel(p, px) {
				t.Fatalf("%+v row %d column %d: castRows wrote %+v, the per-pixel path %+v", c, y, x, p, px)
			}
		}
		if got != want {
			t.Fatalf("%+v row %d: castRows took %d samples, the per-pixel path %d", c, y, got, want)
		}
	}
}

func samePixel(a, b img.RGBA) bool {
	return math.Float32bits(a.R) == math.Float32bits(b.R) && math.Float32bits(a.G) == math.Float32bits(b.G) &&
		math.Float32bits(a.B) == math.Float32bits(b.B) && math.Float32bits(a.A) == math.Float32bits(b.A)
}

// randomWindowCase draws a camera that looks at a small volume from a
// random direction — one time in four along an axis or in an axis plane,
// so that the view direction or right has zero components — a block of
// it with a random ghost extent, and a step from a tenth of a cell to
// twice the volume.
func randomWindowCase(rng *rand.Rand) windowCase {
	dims := grid.I(2+rng.Intn(11), 2+rng.Intn(11), 2+rng.Intn(11))
	c := windowCase{dims: dims, ghost: rng.Intn(4) - 1}
	if rng.Intn(6) > 0 {
		var lo, hi [3]int
		for a, n := range [3]int{dims.X, dims.Y, dims.Z} {
			lo[a] = rng.Intn(n)
			hi[a] = lo[a] + 1 + rng.Intn(n-lo[a])
		}
		own := grid.Ext(grid.I(lo[0], lo[1], lo[2]), grid.I(hi[0], hi[1], hi[2]))
		c.own = &own
	}
	var dir geom.Vec3
	for dir.Len() == 0 {
		dir = geom.V(rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1)
		if rng.Intn(4) == 0 {
			for a := 0; a < 3; a++ {
				if rng.Intn(2) == 0 {
					dir = dir.SetComp(a, 0)
				}
			}
		}
	}
	up := geom.V(0, 1, 0)
	if rng.Intn(3) == 0 {
		up = geom.V(rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1)
	}
	if dir.Norm().Cross(up).Len() < 1e-3 {
		up = geom.V(1, 0, 0)
		if dir.Norm().Cross(up).Len() < 1e-3 {
			up = geom.V(0, 0, 1)
		}
	}
	center := geom.V(float64(dims.X)*rng.Float64(), float64(dims.Y)*rng.Float64(), float64(dims.Z)*rng.Float64())
	side := float64(max(dims.X, dims.Y, dims.Z)) * (0.5 + 2*rng.Float64())
	c.cam = NewOrtho(center, dir, up, side, side*(0.5+rng.Float64()), 1+rng.Intn(48), 1+rng.Intn(40))
	switch rng.Intn(4) {
	case 0:
		c.step = []float64{1, 0.5, 0.25, 2, 16}[rng.Intn(5)]
	default:
		c.step = 0.1 + rng.Float64()*float64(2*max(dims.X, dims.Y, dims.Z))
	}
	return c
}

// The window of every row of random orthographic casts drops only
// columns with no sample and, on a one-sample row, keeps only columns
// that take it; castRows with it writes the per-pixel path's bits. The
// rect's bracket holds every trim and every row's own bracket, on rects
// of one sample, of none, and of more.
func TestWindowMatchesTrim(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var n windowCounts
	for i := 0; i < 3000; i++ {
		randomWindowCase(rng).check(t, i%4 == 0, &n)
	}
	if n.oneSample < 2500 || n.oneSampleCols < 5000 || n.narrowed < 10000 || n.sampled < 20000 || n.outside < 100000 ||
		n.rectOne < 500 || n.rectNone < 500 || n.rowBrackets < 8000 {
		t.Errorf("%+v: the cases do not exercise the window", n)
	}
}

// FuzzWindowMatchesTrim is the property test above over arbitrary
// cameras and steps: finite, a direction and an up that are not
// parallel, and a step no finer than a thousandth of a cell.
func FuzzWindowMatchesTrim(f *testing.F) {
	f.Add(int64(1), 0.35, -0.25, -1.0, 8.0, 8.0, 8.0, 30.4, 16.0)
	f.Add(int64(2), 1.0, 0.0, 0.0, 15.5, 15.5, 15.5, 60.8, 0.5)
	f.Add(int64(3), 0.0, 0.0, 1.0, 3.0, 4.0, 5.0, 10.0, 1.0)
	f.Add(int64(4), 0.6, -0.35, 0.72, 5.5, 5.5, 5.5, 4.0, 0.3)
	// A row whose window is the one sample k = -2, behind the rays'
	// origins: its columns take no sample, and castRows must trim them.
	f.Add(int64(-47), -10.0, 0.0, 53.0, 0.375, 4.0, 63.333333333333336, 10.0, 9.0)
	f.Fuzz(func(t *testing.T, seed int64, dx, dy, dz, cx, cy, cz, side, step float64) {
		for _, v := range []float64{dx, dy, dz, cx, cy, cz, side, step} {
			if math.IsNaN(v) || math.Abs(v) > 1e4 {
				t.Skip()
			}
		}
		dir := geom.V(dx, dy, dz)
		if !(side > 0.1) || !(step >= 1e-3) || dir.Len() < 1e-3 || dir.Norm().Cross(geom.V(0, 1, 0)).Len() < 1e-3 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		c := randomWindowCase(rng)
		c.cam = NewOrtho(geom.V(cx, cy, cz), dir, geom.V(0, 1, 0), side, side, 1+rng.Intn(40), 1+rng.Intn(40))
		c.step = step
		var n windowCounts
		c.check(t, rng.Intn(4) == 0, &n)
	})
}

// The step-3 golden scene takes both ways a rect's bracket decides every
// row — one sample, and none — and leaves other rects to their rows.
func TestRectBracketOnGoldenScene(t *testing.T) {
	var sc goldenScene
	for _, s := range goldenScenes {
		if s.name == "ortho-16-step3-512-blocks" {
			sc = s
		}
	}
	cam := sc.cam(sc.n, sc.w, sc.h).(*Ortho)
	d := grid.NewDecomp(sc.dims(), sc.blocks)
	var one, none, rows int
	for r := 0; r < d.NumBlocks(); r++ {
		own := d.BlockExtent(r)
		f := volume.NewField(sc.dims(), d.GhostExtent(r, GhostLayersFor(sc.cfg)))
		j := castJob{plan: newCastPlan([]*volume.Field{f}, &own, sc.cfg), cam: cam, box: ownedBounds(own),
			rect: ProjectedRect(cam, own)}
		j.setOrtho(cam)
		switch {
		case j.kA == j.kB:
			one++
		case j.kA > j.kB:
			none++
		default:
			rows++
		}
		colTerms.Put(j.cols)
	}
	if one != 361 || none != 4 || rows != 147 {
		t.Errorf("%s: %d rects of one sample, %d of none, %d left to their rows; want 361, 4, 147", sc.name, one, none, rows)
	}
}

// A row's window allocates nothing, nor does the rect's bracket or
// casting a row with it.
func TestWindowAllocatesNothing(t *testing.T) {
	dims := grid.Cube(16)
	own := grid.Ext(grid.I(4, 4, 4), grid.I(8, 8, 8))
	cam := NewOrtho(geom.V(7.5, 7.5, 7.5), geom.V(0.35, -0.25, -1), geom.V(0, 1, 0), 30.4, 30.4, 256, 256)
	f := volume.Supernova{Seed: 1, Time: 1}.Generate(volume.VarVelocityX, dims, grid.Ext(grid.I(3, 3, 3), grid.I(9, 9, 9)))
	rect := ProjectedRect(cam, own)
	j := castJob{plan: newCastPlan([]*volume.Field{f}, &own, Config{Step: 16}), tf: volume.SupernovaTransfer(),
		cam: cam, box: ownedBounds(own), rect: rect, stride: rect.W(), pix: make([]img.RGBA, rect.NumPixels())}
	j.setOrtho(cam)
	defer colTerms.Put(j.cols)
	y := (rect.Y0 + rect.Y1) / 2
	rowTerm := cam.rowTerm(float64(y) + 0.5)
	if xa, xb, _, _ := j.window(rowTerm); xa == rect.X0 && xb == rect.X1 {
		t.Fatalf("row %d's window [%d, %d) is the whole rect %v: the test needs a narrowed row", y, xa, xb, rect)
	}
	if a := testing.AllocsPerRun(100, func() { j.window(rowTerm) }); a != 0 {
		t.Errorf("window: %v allocations a row", a)
	}
	if a := testing.AllocsPerRun(100, func() { j.rectBracket() }); a != 0 {
		t.Errorf("the rect's bracket: %v allocations a block", a)
	}
	if a := testing.AllocsPerRun(20, func() { j.castRows(rect.Y0, rect.Y1) }); a != 0 {
		t.Errorf("castRows: %v allocations a call", a)
	}
}
