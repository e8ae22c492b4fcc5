package par

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if w := Workers(3); w != 3 {
		t.Errorf("Workers(3) = %d", w)
	}
	if w := Workers(0); w < 1 {
		t.Errorf("Workers(0) = %d, want >= 1", w)
	}
	if Workers(-2) != Workers(0) {
		t.Error("negative width must mean all cores, like 0")
	}
}

func TestTilesCoverDisjointOrdered(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{
		{10, 3}, {10, 10}, {10, 40}, {1, 1}, {7, 2}, {100, 16}, {5, 1},
	} {
		tiles := Tiles(tc.n, tc.parts)
		want := tc.parts
		if want > tc.n {
			want = tc.n
		}
		if len(tiles) != want {
			t.Fatalf("Tiles(%d,%d): %d tiles, want %d", tc.n, tc.parts, len(tiles), want)
		}
		next := 0
		for i, tile := range tiles {
			if tile.Lo != next || tile.Hi <= tile.Lo {
				t.Fatalf("Tiles(%d,%d)[%d] = %+v, want contiguous from %d", tc.n, tc.parts, i, tile, next)
			}
			next = tile.Hi
		}
		if next != tc.n {
			t.Fatalf("Tiles(%d,%d) cover [0,%d), want [0,%d)", tc.n, tc.parts, next, tc.n)
		}
		// Near-equal sizes: max-min <= 1.
		min, max := tiles[0].Hi-tiles[0].Lo, tiles[0].Hi-tiles[0].Lo
		for _, tile := range tiles {
			if l := tile.Hi - tile.Lo; l < min {
				min = l
			} else if l > max {
				max = l
			}
		}
		if max-min > 1 {
			t.Errorf("Tiles(%d,%d): uneven sizes %d..%d", tc.n, tc.parts, min, max)
		}
	}
	if Tiles(0, 4) != nil {
		t.Error("Tiles(0, _) must be empty")
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 8, 0} {
		const n = 1000
		counts := make([]int32, n)
		For(w, n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("width %d: index %d ran %d times", w, i, c)
			}
		}
	}
}

func TestForDeterministicReduction(t *testing.T) {
	// The canonical usage: disjoint output slots folded in index order
	// give the same result at every width.
	const n = 257
	ref := make([]int64, n)
	For(1, n, func(i int) { ref[i] = int64(i * i) })
	for _, w := range []int{2, 3, 16} {
		out := make([]int64, n)
		For(w, n, func(i int) { out[i] = int64(i * i) })
		for i := range ref {
			if out[i] != ref[i] {
				t.Fatalf("width %d: slot %d = %d, want %d", w, i, out[i], ref[i])
			}
		}
	}
}

func TestForWidthOneAllocatesNothing(t *testing.T) {
	var sink int64
	fn := func(i int) { sink += int64(i) }
	efn := func(i int) error { sink += int64(i); return nil }
	if a := testing.AllocsPerRun(100, func() {
		For(1, 64, fn)
	}); a != 0 {
		t.Errorf("For at width 1 allocates %.1f objects/run, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		_ = ForErr(1, 64, efn)
	}); a != 0 {
		t.Errorf("ForErr at width 1 allocates %.1f objects/run, want 0", a)
	}
	_ = sink
}

func TestForPanicPropagates(t *testing.T) {
	for _, w := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("width %d: panic did not propagate", w)
				}
				if w > 1 && !strings.Contains(fmt.Sprint(r), "boom") {
					t.Fatalf("width %d: panic %q lost the cause", w, r)
				}
			}()
			For(w, 100, func(i int) {
				if i == 37 {
					panic("boom")
				}
			})
		}()
	}
}

func TestForErrLowestIndexWins(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	for _, w := range []int{1, 2, 8} {
		err := ForErr(w, 100, func(i int) error {
			switch i {
			case 90:
				return errB
			case 11:
				return errA
			}
			return nil
		})
		if err != errA {
			t.Errorf("width %d: err = %v, want %v (lowest index)", w, err, errA)
		}
	}
	if err := ForErr(4, 50, func(i int) error { return nil }); err != nil {
		t.Errorf("all-nil: err = %v", err)
	}
}

func TestForEmptyAndSingle(t *testing.T) {
	For(8, 0, func(i int) { t.Error("fn called for n=0") })
	ran := 0
	For(8, 1, func(i int) { ran++ })
	if ran != 1 {
		t.Errorf("n=1 ran %d times", ran)
	}
}

func TestStatsAccumulate(t *testing.T) {
	b0, w0 := Stats()
	For(2, 100, func(i int) {
		s := 0
		for j := 0; j < 1000; j++ {
			s += j
		}
		_ = s
	})
	b1, w1 := Stats()
	if b1 < b0 || w1 <= w0 {
		t.Errorf("Stats did not advance: busy %v->%v wall %v->%v", b0, b1, w0, w1)
	}
}
