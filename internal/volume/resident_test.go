package volume

import (
	"math"
	"testing"

	"bgpvr/internal/grid"
)

// TestFillFromMatchesFill pins the resident path to the stateless one
// and both to the pointwise definition: a Turbulence table holds
// exactly the float64 turbulence Eval computes at each point, FillFrom's
// float64 instance is EvalNorm's bits, and its float32 field is Fill's
// and Eval's — for every variable, at several Times sharing one table,
// on whole, ghost, single-plane and empty extents.
func TestFillFromMatchesFill(t *testing.T) {
	cube := grid.Cube(12)
	d := grid.NewDecomp(cube, 8)
	exts := map[string]struct {
		dims grid.IVec3
		ext  grid.Extent
	}{
		"whole":    {cube, grid.WholeGrid(cube)},
		"ghost":    {cube, d.GhostExtent(5, 1)},
		"ghost2":   {cube, d.GhostExtent(0, 2)},
		"plane":    {cube, grid.Ext(grid.I(0, 0, 5), grid.I(12, 12, 6))},
		"empty":    {cube, grid.Ext(grid.I(4, 4, 4), grid.I(4, 9, 9))},
		"noncubic": {grid.I(9, 14, 5), grid.Ext(grid.I(2, 3, 1), grid.I(8, 11, 4))},
	}
	for _, seed := range []int64{1530, -3} {
		for v := Var(0); v < NumVars; v++ {
			for name, c := range exts {
				dims, ext := c.dims, c.ext
				turb := Supernova{Seed: seed}.Turbulence(v, dims, ext)
				if int64(len(turb.data)) != ext.Count() || turb.Bytes() != 8*ext.Count() {
					t.Fatalf("%s: table of %d values (%d bytes) for %d points", name, len(turb.data), turb.Bytes(), ext.Count())
				}
				for _, tm := range []float64{1.1, 0, 2.5, -7.25} {
					sn := Supernova{Seed: seed, Time: tm}
					p := sn.plan(v)
					exact := make([]float64, ext.Count())
					fillFrom(exact, &p, turb)
					resident := NewField(dims, ext)
					sn.FillFrom(resident, v, turb)
					filled := NewField(dims, ext)
					sn.Fill(filled, v)
					i := 0
					for z := ext.Lo.Z; z < ext.Hi.Z; z++ {
						for y := ext.Lo.Y; y < ext.Hi.Y; y++ {
							for x := ext.Lo.X; x < ext.Hi.X; x++ {
								cx, cy, cz := coord(x, dims.X), coord(y, dims.Y), coord(z, dims.Z)
								if got, want := turb.data[i], p.turbulence(cx, cy, cz); math.Float64bits(got) != math.Float64bits(want) {
									t.Fatalf("seed %d %v %s (%d,%d,%d): table %x, turbulence %x", seed, v, name, x, y, z,
										math.Float64bits(got), math.Float64bits(want))
								}
								if got, want := exact[i], sn.EvalNorm(v, cx, cy, cz); math.Float64bits(got) != math.Float64bits(want) {
									t.Fatalf("%+v %v %s (%d,%d,%d): resident float64 %x, EvalNorm %x", sn, v, name, x, y, z,
										math.Float64bits(got), math.Float64bits(want))
								}
								want := math.Float32bits(sn.Eval(v, dims, x, y, z))
								if got := math.Float32bits(resident.Data[i]); got != want {
									t.Fatalf("%+v %v %s (%d,%d,%d): FillFrom %x, Eval %x", sn, v, name, x, y, z, got, want)
								}
								if got := math.Float32bits(filled.Data[i]); got != want {
									t.Fatalf("%+v %v %s (%d,%d,%d): Fill %x, Eval %x", sn, v, name, x, y, z, got, want)
								}
								i++
							}
						}
					}
				}
			}
		}
	}
}

// A table fills only the seed, variable and extent it was built for.
func TestFillFromRefusesAnotherTable(t *testing.T) {
	dims := grid.Cube(8)
	ext := grid.WholeGrid(dims)
	turb := Supernova{Seed: 1}.Turbulence(VarDensity, dims, ext)
	for name, fill := range map[string]func(){
		"seed": func() { Supernova{Seed: 2}.FillFrom(NewField(dims, ext), VarDensity, turb) },
		"var":  func() { Supernova{Seed: 1}.FillFrom(NewField(dims, ext), VarPressure, turb) },
		"extent": func() {
			Supernova{Seed: 1}.FillFrom(NewField(dims, grid.Ext(grid.I(0, 0, 0), grid.I(8, 8, 4))), VarDensity, turb)
		},
		"dims": func() { Supernova{Seed: 1}.FillFrom(NewField(grid.Cube(9), ext), VarDensity, turb) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: FillFrom accepted another block's table", name)
				}
			}()
			fill()
		}()
	}
}

// A warm FillFrom allocates nothing: its coordinate row comes from the
// pool and the field is the caller's.
func TestFillFromAllocation(t *testing.T) {
	sn := generators[0]
	dims := grid.Cube(64)
	ext := grid.NewDecomp(dims, 8).GhostExtent(3, 1) // the service's block
	turb := sn.Turbulence(VarVelocityX, dims, ext)
	f := NewField(dims, ext)
	sn.FillFrom(f, VarVelocityX, turb)
	if n := testing.AllocsPerRun(8, func() { sn.FillFrom(f, VarVelocityX, turb) }); n > 0 {
		t.Errorf("a warm FillFrom makes %v allocations, want none", n)
	}
}
