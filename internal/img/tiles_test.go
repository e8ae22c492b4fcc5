package img

import (
	"testing"
	"testing/quick"
)

// allTiles returns every tile of NewTileGrid(w, h, m) in index order.
func allTiles(w, h, m int) []Rect {
	g := NewTileGrid(w, h, m)
	out := make([]Rect, g.MX*g.MY)
	for i := range out {
		out[i] = g.Tile(i)
	}
	return out
}

// Property: a TileGrid's tiles partition the image exactly — every pixel is
// covered by exactly one tile.
func TestPartitionTilesPartition(t *testing.T) {
	f := func(ww, hh, mm uint8) bool {
		w, h, m := int(ww%40)+1, int(hh%40)+1, int(mm%16)+1
		tiles := allTiles(w, h, m)
		if len(tiles) != m {
			return false
		}
		covered := make([]int, w*h)
		for _, tile := range tiles {
			for y := tile.Y0; y < tile.Y1; y++ {
				for x := tile.X0; x < tile.X1; x++ {
					if x < 0 || x >= w || y < 0 || y >= h {
						return false
					}
					covered[y*w+x]++
				}
			}
		}
		for _, c := range covered {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPartitionTilesNearSquare(t *testing.T) {
	// A square image with a square tile count gives a square grid.
	tiles := allTiles(100, 100, 16)
	for _, tile := range tiles {
		if tile.W() != 25 || tile.H() != 25 {
			t.Fatalf("tile %v not 25x25", tile)
		}
	}
	// A wide image prefers more columns.
	tiles = allTiles(200, 50, 4)
	if tiles[0].W() != 50 || tiles[0].H() != 50 {
		t.Errorf("wide image tile = %v, want 50x50", tiles[0])
	}
}

func TestPartitionTilesSingle(t *testing.T) {
	tiles := allTiles(7, 9, 1)
	if len(tiles) != 1 || tiles[0] != (Rect{X0: 0, Y0: 0, X1: 7, Y1: 9}) {
		t.Errorf("tiles = %v", tiles)
	}
}

func TestPartitionTilesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewTileGrid(10, 10, 0)
}

func TestPartitionTilesPrimeCount(t *testing.T) {
	// A prime m forces a 1 x m or m x 1 grid; the partition must hold.
	tiles := allTiles(64, 64, 7)
	var total int
	for _, tile := range tiles {
		total += tile.NumPixels()
	}
	if total != 64*64 {
		t.Errorf("prime tile count does not partition: %d", total)
	}
}
