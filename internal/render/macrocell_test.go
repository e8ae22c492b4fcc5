package render

import (
	"math/rand"
	"testing"

	"bgpvr/internal/geom"
	"bgpvr/internal/grid"
	"bgpvr/internal/volume"
)

// cellRange returns the scalar min/max of the macrocell containing p;
// ok is false outside the grid.
func cellRange(g *MinMaxGrid, p geom.Vec3) (lo, hi float32, ok bool) {
	lx := p.X - float64(g.ext.Lo.X)
	ly := p.Y - float64(g.ext.Lo.Y)
	lz := p.Z - float64(g.ext.Lo.Z)
	if lx < 0 || ly < 0 || lz < 0 {
		return 0, 0, false
	}
	cx, cy, cz := int(lx)/g.CellSize, int(ly)/g.CellSize, int(lz)/g.CellSize
	if cx >= g.nx || cy >= g.ny || cz >= g.nz {
		return 0, 0, false
	}
	ci := (cz*g.ny+cy)*g.nx + cx
	return g.mins[ci], g.maxs[ci], true
}

// Property: every trilinear sample's value lies within its macrocell's
// [min, max] range — the invariant that would make skipping a cell
// whose range is transparent safe.
func TestMinMaxBounds(t *testing.T) {
	dims := grid.Cube(20)
	sn := volume.Supernova{Seed: 11, Time: 0.3}
	f := sn.GenerateFull(volume.VarVelocityX, dims)
	for _, cellSize := range []int{2, 4, 7} {
		g := BuildMinMax(f, cellSize)
		rng := rand.New(rand.NewSource(int64(cellSize)))
		for i := 0; i < 3000; i++ {
			p := geom.V(rng.Float64()*19, rng.Float64()*19, rng.Float64()*19)
			v, ok := f.Sample(p)
			if !ok {
				continue
			}
			lo, hi, ok := cellRange(g, p)
			if !ok {
				t.Fatalf("point %v not covered by macrocell grid", p)
			}
			if v < float64(lo)-1e-6 || v > float64(hi)+1e-6 {
				t.Fatalf("cellSize=%d: sample %v = %v outside cell range [%v, %v]",
					cellSize, p, v, lo, hi)
			}
		}
	}
}

func TestMinMaxPartialExtent(t *testing.T) {
	dims := grid.Cube(16)
	sn := volume.Supernova{Seed: 12, Time: 0.6}
	ext := grid.Ext(grid.I(3, 4, 5), grid.I(12, 13, 14))
	f := sn.Generate(volume.VarDensity, dims, ext)
	g := BuildMinMax(f, 3)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		p := geom.V(3+rng.Float64()*8, 4+rng.Float64()*8, 5+rng.Float64()*8)
		v, ok := f.Sample(p)
		if !ok {
			continue
		}
		lo, hi, ok := cellRange(g, p)
		if !ok || v < float64(lo)-1e-6 || v > float64(hi)+1e-6 {
			t.Fatalf("partial extent: sample %v = %v vs [%v, %v] ok=%v", p, v, lo, hi, ok)
		}
	}
	// Points outside the extent are not covered.
	if _, _, ok := cellRange(g, geom.V(0, 0, 0)); ok {
		t.Error("point outside extent covered")
	}
}

func TestMaxOpacityInExact(t *testing.T) {
	tf := volume.NewTransfer(
		volume.TransferPoint{V: 0.0, A: 0},
		volume.TransferPoint{V: 0.5, A: 1}, // a narrow spike
		volume.TransferPoint{V: 0.51, A: 0},
		volume.TransferPoint{V: 1.0, A: 0},
	)
	// An interval straddling the spike must see it even though its
	// endpoints are transparent.
	if got := tf.MaxOpacityIn(0.4, 0.6); got != 1 {
		t.Errorf("spike missed: MaxOpacityIn = %v", got)
	}
	if got := tf.MaxOpacityIn(0.6, 0.9); got != 0 {
		t.Errorf("transparent interval reports %v", got)
	}
	// Reversed arguments behave.
	if got := tf.MaxOpacityIn(0.6, 0.4); got != 1 {
		t.Errorf("reversed interval = %v", got)
	}
}
