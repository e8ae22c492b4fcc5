package volume

import (
	"math"
	"sync"
	"testing"

	"bgpvr/internal/grid"
)

var generators = []Supernova{
	{Seed: 1530, Time: 1.1},
	{Seed: 7, Time: 0},
	{Seed: -3, Time: 2.5},
	{Seed: 1 << 40, Time: 1e6},
}

// sameBits fails unless got holds, bit for bit, Eval at every lattice
// point of its extent, and the row kernel's float64s there are
// EvalNorm's: rounding to float32 hides a reordered sum or product.
func sameBits(t *testing.T, sn Supernova, v Var, got *Field) {
	t.Helper()
	dims, ext := got.Dims, got.Ext
	if int64(len(got.Data)) != ext.Count() {
		t.Fatalf("%+v %v %v: %d samples for %d points", sn, v, ext, len(got.Data), ext.Count())
	}
	p := sn.plan(v)
	exact := make([]float64, len(got.Data))
	fillRows(exact, &p, dims, ext)
	i := 0
	for z := ext.Lo.Z; z < ext.Hi.Z; z++ {
		for y := ext.Lo.Y; y < ext.Hi.Y; y++ {
			for x := ext.Lo.X; x < ext.Hi.X; x++ {
				want := sn.EvalNorm(v, coord(x, dims.X), coord(y, dims.Y), coord(z, dims.Z))
				if math.Float64bits(exact[i]) != math.Float64bits(want) {
					t.Fatalf("%+v %v dims %v ext %v: (%d,%d,%d) = %x, EvalNorm = %x",
						sn, v, dims, ext, x, y, z, math.Float64bits(exact[i]), math.Float64bits(want))
				}
				if want := sn.Eval(v, dims, x, y, z); math.Float32bits(got.Data[i]) != math.Float32bits(want) {
					t.Fatalf("%+v %v dims %v ext %v: (%d,%d,%d) = %x, Eval = %x",
						sn, v, dims, ext, x, y, z, math.Float32bits(got.Data[i]), math.Float32bits(want))
				}
				i++
			}
		}
	}
}

// TestGenerateMatchesEval pins the row kernel to the pointwise
// definition: every float32 of every field is Eval's, to the bit.
func TestGenerateMatchesEval(t *testing.T) {
	cube := grid.Cube(12)
	exts := map[string]struct {
		dims grid.IVec3
		ext  grid.Extent
	}{
		"whole":    {cube, grid.WholeGrid(cube)},
		"plane":    {cube, grid.Ext(grid.I(0, 0, 5), grid.I(12, 12, 6))},
		"row":      {cube, grid.Ext(grid.I(0, 7, 11), grid.I(12, 8, 12))},
		"voxel":    {cube, grid.Ext(grid.I(11, 0, 3), grid.I(12, 1, 4))},
		"empty":    {cube, grid.Ext(grid.I(4, 4, 4), grid.I(4, 9, 9))},
		"noncubic": {grid.I(9, 14, 5), grid.WholeGrid(grid.I(9, 14, 5))},
		"interior": {grid.I(9, 14, 5), grid.Ext(grid.I(2, 3, 1), grid.I(8, 11, 4))},
	}
	d := grid.NewDecomp(cube, 8)
	for _, sn := range generators {
		for v := Var(0); v < NumVars; v++ {
			for name, c := range exts {
				f := sn.Generate(v, c.dims, c.ext)
				if f.Dims != c.dims || f.Ext != c.ext {
					t.Fatalf("%s: field covers %v of %v", name, f.Ext, f.Dims)
				}
				sameBits(t, sn, v, f)
			}
			for r := 0; r < d.NumBlocks(); r++ {
				sameBits(t, sn, v, sn.Generate(v, cube, d.GhostExtent(r, 1)))
			}
		}
	}
}

// evalOriginal is Eval as it stood before the plan and the row kernel
// existed, kept word for word as the independent statement of what the
// dataset is.
func evalOriginal(s Supernova, v Var, dims grid.IVec3, xi, yi, zi int) float32 {
	turbulence := func(x, y, z float64, which int) float64 {
		var sum, norm float64
		freq := 3.0
		amp := 1.0
		for o := 0; o < 4; o++ {
			p0 := s.phase(o, which*4+0)
			p1 := s.phase(o, which*4+1)
			p2 := s.phase(o, which*4+2)
			v := math.Sin(freq*x+p0) * math.Sin(freq*y+p1) * math.Sin(freq*z+p2)
			x, y, z = 0.8*y+0.6*z, 0.8*z+0.6*x, 0.8*x+0.6*y
			sum += amp * v
			norm += amp
			freq *= 2.1
			amp *= 0.55
		}
		return sum / norm
	}
	x := 2*float64(xi)/float64(dims.X-1) - 1
	y := 2*float64(yi)/float64(dims.Y-1) - 1
	z := 2*float64(zi)/float64(dims.Z-1) - 1
	r := math.Sqrt(x*x + y*y + z*z)
	if r < 1e-12 {
		r = 1e-12
	}
	ux, uy, uz := x/r, y/r, z/r
	slosh := 0.10 * math.Sin(s.Time) * uz
	quad := 0.05 * math.Cos(0.7*s.Time) * (3*uz*uz - 1) / 2
	shock := 0.72 + slosh + quad
	inside := 0.5 * (1 - math.Tanh((r-shock)/0.035))
	var raw float64
	switch v {
	case VarPressure:
		raw = 2.2*math.Exp(-3*r) + 0.9*inside + 0.15*inside*turbulence(x, y, z, 0)
		raw = raw/3.3*2 - 1
	case VarDensity:
		raw = 1.8*math.Exp(-2.2*r) + 0.7*inside + 0.2*inside*turbulence(x, y, z, 1)
		raw = raw/2.7*2 - 1
	default:
		comp := int(v - VarVelocityX)
		u := [3]float64{ux, uy, uz}[comp]
		infall := -0.85 * u * math.Min(1, (r-shock)/0.25+1)
		turb := turbulence(x, y, z, 2+comp) + 0.35*math.Sin(s.Time)*u
		raw = inside*turb + (1-inside)*infall
	}
	if raw > 1 {
		raw = 1
	}
	if raw < -1 {
		raw = -1
	}
	return float32(0.5 * (raw + 1))
}

func TestEvalMatchesOriginal(t *testing.T) {
	for _, dims := range []grid.IVec3{grid.Cube(11), grid.I(9, 14, 5)} { // 11: the centre is a lattice point
		for _, sn := range generators {
			for v := Var(0); v < NumVars; v++ {
				for z := 0; z < dims.Z; z++ {
					for y := 0; y < dims.Y; y++ {
						for x := 0; x < dims.X; x++ {
							got, want := sn.Eval(v, dims, x, y, z), evalOriginal(sn, v, dims, x, y, z)
							if math.Float32bits(got) != math.Float32bits(want) {
								t.Fatalf("%+v %v %v (%d,%d,%d): Eval %x, original %x", sn, v, dims, x, y, z,
									math.Float32bits(got), math.Float32bits(want))
							}
						}
					}
				}
			}
		}
	}
}

// A one-sample axis sits at the centre of the cube: 2·0/0 − 1 made the
// whole field NaN.
func TestOneSampleAxisIsCentre(t *testing.T) {
	sn := generators[0]
	dims := grid.I(10, 10, 1)
	for v := Var(0); v < NumVars; v++ {
		f := sn.GenerateFull(v, dims)
		sameBits(t, sn, v, f)
		for y := 0; y < dims.Y; y++ {
			for x := 0; x < dims.X; x++ {
				got := f.At(x, y, 0)
				want := float32(sn.EvalNorm(v, 2*float64(x)/9-1, 2*float64(y)/9-1, 0))
				if got != want || got != got {
					t.Fatalf("%v (%d,%d,0) = %v, EvalNorm at z=0 = %v", v, x, y, got, want)
				}
			}
		}
	}
	if got := sn.Eval(VarDensity, grid.Cube(1), 0, 0, 0); got != float32(sn.EvalNorm(VarDensity, 0, 0, 0)) {
		t.Errorf("1^3 grid = %v, want the centre value", got)
	}
}

// A warm Generate allocates the field (header and samples) and nothing
// else: its tables come from the pool.
func TestGenerateAllocation(t *testing.T) {
	sn := generators[0]
	dims := grid.Cube(16)
	for _, ext := range []grid.Extent{grid.WholeGrid(dims), grid.NewDecomp(dims, 64).GhostExtent(21, 1)} {
		sn.Generate(VarVelocityX, dims, ext)
		if n := testing.AllocsPerRun(8, func() { sn.Generate(VarVelocityX, dims, ext) }); n > 2 {
			t.Errorf("%v: a warm Generate makes %v allocations, want the field's 2", ext, n)
		}
	}
}

// The frame-composite shape: 64 ranks generate their blocks at once.
func TestGenerateConcurrent(t *testing.T) {
	sn := generators[0]
	dims := grid.Cube(16)
	d := grid.NewDecomp(dims, 64)
	whole := sn.GenerateFull(VarVelocityX, dims)
	blocks := make([]*Field, d.NumBlocks())
	var wg sync.WaitGroup
	for r := range blocks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				blocks[r] = sn.Generate(VarVelocityX, dims, d.GhostExtent(r, 1))
			}
		}()
	}
	wg.Wait()
	for r, b := range blocks {
		want := NewField(dims, b.Ext)
		want.SubfieldFrom(whole)
		for i := range want.Data {
			if math.Float32bits(b.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("block %d sample %d = %v, serial = %v", r, i, b.Data[i], want.Data[i])
			}
		}
	}
}
