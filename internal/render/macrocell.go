package render

import (
	"math"

	"bgpvr/internal/grid"
	"bgpvr/internal/volume"
)

// A coarse min-max grid ("macrocells", Levoy's empty-space skipping)
// over a field, and the opacity mask a transfer function makes of it.
// No renderer consults them, and none should: the supernova transfer
// function is transparent only at one value, so no macrocell of any
// scene the program renders is skippable (EXPERIMENTS.md, "Empty-space
// skipping skips nothing"). They are kept only as the work the
// benchmark's render.mask_build_ms layer row times, and go, with
// Transfer.MaxOpacityIn, when that row is retired.

// MinMaxGrid holds per-macrocell scalar ranges of a field.
type MinMaxGrid struct {
	CellSize int // lattice points per macrocell edge
	dims     grid.IVec3
	ext      grid.Extent // field extent the grid covers
	nx, ny   int
	nz       int
	mins     []float32
	maxs     []float32
}

// BuildMinMax constructs the min-max grid over a field with the given
// macrocell edge length (in lattice cells).
func BuildMinMax(f *volume.Field, cellSize int) *MinMaxGrid {
	if cellSize < 2 {
		cellSize = 2
	}
	s := f.Ext.Size()
	g := &MinMaxGrid{
		CellSize: cellSize,
		dims:     f.Dims,
		ext:      f.Ext,
		nx:       (s.X + cellSize - 1) / cellSize,
		ny:       (s.Y + cellSize - 1) / cellSize,
		nz:       (s.Z + cellSize - 1) / cellSize,
	}
	n := g.nx * g.ny * g.nz
	g.mins = make([]float32, n)
	g.maxs = make([]float32, n)
	for i := range g.mins {
		g.mins[i] = float32(math.Inf(1))
		g.maxs[i] = float32(math.Inf(-1))
	}
	// A lattice point on a macrocell boundary participates in
	// interpolation on both sides, so it must widen both cells' ranges:
	// accumulate into every macrocell whose half-open region the point's
	// *cell* neighborhood touches — its own cell plus the preceding cell
	// along any axis where the point sits exactly on a macrocell boundary.
	for z := f.Ext.Lo.Z; z < f.Ext.Hi.Z; z++ {
		z0, z1 := cellAndPrev(z-g.ext.Lo.Z, cellSize, g.nz)
		for y := f.Ext.Lo.Y; y < f.Ext.Hi.Y; y++ {
			y0, y1 := cellAndPrev(y-g.ext.Lo.Y, cellSize, g.ny)
			for x := f.Ext.Lo.X; x < f.Ext.Hi.X; x++ {
				x0, x1 := cellAndPrev(x-g.ext.Lo.X, cellSize, g.nx)
				v := f.At(x, y, z)
				for cz := z0; cz <= z1; cz++ {
					for cy := y0; cy <= y1; cy++ {
						for cx := x0; cx <= x1; cx++ {
							ci := (cz*g.ny+cy)*g.nx + cx
							if v < g.mins[ci] {
								g.mins[ci] = v
							}
							if v > g.maxs[ci] {
								g.maxs[ci] = v
							}
						}
					}
				}
			}
		}
	}
	return g
}

// cellAndPrev returns the range [c0, c1] of macrocells along one axis
// that lattice offset l widens: the cell it lies in (the last one, for a
// point past it) and, when it sits on that cell's lower boundary, the
// cell before.
func cellAndPrev(l, size, n int) (c0, c1 int) {
	c := min(l/size, n-1)
	if l%size == 0 && c > 0 {
		return c - 1, c
	}
	return c, c
}

// OpacityMask holds, for a transfer function, whether each macrocell can
// produce any opacity: a cell whose [min, max] value range classifies to
// zero opacity everywhere is one a ray could skip.
type OpacityMask struct {
	visible []bool
}

// BuildOpacityMask evaluates, exactly for piecewise-linear transfer
// functions, whether each macrocell's value range can classify to any
// opacity.
func BuildOpacityMask(g *MinMaxGrid, tf *volume.Transfer) *OpacityMask {
	m := &OpacityMask{visible: make([]bool, len(g.mins))}
	for i := range g.mins {
		lo, hi := float64(g.mins[i]), float64(g.maxs[i])
		if lo > hi {
			continue // empty cell (no points): stays invisible
		}
		m.visible[i] = tf.MaxOpacityIn(lo, hi) > 0
	}
	return m
}
