package img

// TileGrid divides a w x h image into m rectangular tiles, one per
// compositor, as close to square as possible. Direct-send assigns each
// compositor such a subregion of the final image; compact 2D tiles (as
// opposed to scanline spans) are what give direct-send its O(m * n^(1/3))
// total message count — a tile overlaps roughly one column of projected
// blocks. The remainder pixels go to the lowest-index rows/columns, so
// the m tiles partition the image exactly.
//
// Range answers rect-to-tile-range queries in O(1). The schedule
// generators need this: at 32K renderers and 32K compositors, probing
// every (rect, tile) pair would cost a billion intersections, while each
// rect actually overlaps only a handful of tiles.
type TileGrid struct {
	W, H   int
	MX, MY int
}

// NewTileGrid chooses the factorization (MX, MY) of m whose tile shape
// is closest to square for a w x h image.
func NewTileGrid(w, h, m int) TileGrid {
	if m <= 0 {
		panic("img: NewTileGrid requires m > 0")
	}
	bestX := 1
	bestScore := tileScore(w, h, 1, m)
	for mx := 1; mx <= m; mx++ {
		if m%mx != 0 {
			continue
		}
		if s := tileScore(w, h, mx, m/mx); s < bestScore {
			bestX, bestScore = mx, s
		}
	}
	return TileGrid{W: w, H: h, MX: bestX, MY: m / bestX}
}

// Tile returns the rectangle of tile i (row-major: i = ty*MX + tx).
func (g TileGrid) Tile(i int) Rect {
	tx, ty := i%g.MX, i/g.MX
	x0, x1 := axisSplit(g.W, g.MX, tx)
	y0, y1 := axisSplit(g.H, g.MY, ty)
	return Rect{X0: x0, Y0: y0, X1: x1, Y1: y1}
}

// axisIndex returns the partition index along an axis of length l split
// into n parts that contains coordinate x (0 <= x < l).
func axisIndex(l, n, x int) int {
	q, r := l/n, l%n
	if q == 0 {
		// More parts than pixels: parts 0..r-1 have one pixel each.
		return x
	}
	if x < r*(q+1) {
		return x / (q + 1)
	}
	return (x-r*(q+1))/q + r
}

// Range returns the half-open tile index ranges [tx0, tx1) x [ty0, ty1)
// of tiles intersecting rect (clipped to the image). Empty rects yield
// empty ranges.
func (g TileGrid) Range(rect Rect) (tx0, tx1, ty0, ty1 int) {
	rect = rect.Intersect(Rect{X0: 0, Y0: 0, X1: g.W, Y1: g.H})
	if rect.Empty() {
		return 0, 0, 0, 0
	}
	tx0 = axisIndex(g.W, g.MX, rect.X0)
	tx1 = axisIndex(g.W, g.MX, rect.X1-1) + 1
	ty0 = axisIndex(g.H, g.MY, rect.Y0)
	ty1 = axisIndex(g.H, g.MY, rect.Y1-1) + 1
	return
}
