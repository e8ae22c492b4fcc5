package img

import (
	"math/rand"
	"testing"
)

func TestAxisIndexInvertsAxisSplit(t *testing.T) {
	for _, c := range []struct{ l, n int }{{10, 3}, {100, 7}, {5, 5}, {3, 7}, {1600, 45}} {
		for i := 0; i < c.n; i++ {
			lo, hi := axisSplit(c.l, c.n, i)
			for x := lo; x < hi; x++ {
				if got := axisIndex(c.l, c.n, x); got != i {
					t.Fatalf("axisIndex(%d,%d,%d) = %d, want %d", c.l, c.n, x, got, i)
				}
			}
		}
	}
}

// Property: Range returns exactly the tiles a rect intersects.
func TestTileGridRangeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		w, h := rng.Intn(60)+1, rng.Intn(60)+1
		m := rng.Intn(24) + 1
		g := NewTileGrid(w, h, m)
		x0, y0 := rng.Intn(w+10)-5, rng.Intn(h+10)-5
		rect := Rect{X0: x0, Y0: y0, X1: x0 + rng.Intn(30), Y1: y0 + rng.Intn(30)}
		tx0, tx1, ty0, ty1 := g.Range(rect)
		inRange := func(i int) bool {
			tx, ty := i%g.MX, i/g.MX
			return tx >= tx0 && tx < tx1 && ty >= ty0 && ty < ty1
		}
		for i := 0; i < g.MX*g.MY; i++ {
			overlaps := !g.Tile(i).Intersect(rect).Empty()
			if overlaps != inRange(i) {
				t.Fatalf("w=%d h=%d m=%d rect=%v tile %d (%v): overlaps=%v inRange=%v",
					w, h, m, rect, i, g.Tile(i), overlaps, inRange(i))
			}
		}
	}
}

func TestTileGridRangeEmptyRect(t *testing.T) {
	g := NewTileGrid(10, 10, 4)
	tx0, tx1, ty0, ty1 := g.Range(Rect{X0: 5, Y0: 5, X1: 5, Y1: 9})
	if tx0 != tx1 && ty0 != ty1 {
		t.Errorf("empty rect gave range %d..%d, %d..%d", tx0, tx1, ty0, ty1)
	}
	// Entirely off-image.
	tx0, tx1, _, _ = g.Range(Rect{X0: 100, Y0: 100, X1: 120, Y1: 120})
	if tx0 != tx1 {
		t.Error("off-image rect should give empty range")
	}
}
