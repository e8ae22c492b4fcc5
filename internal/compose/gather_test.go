package compose

import (
	"fmt"
	"slices"
	"testing"

	"bgpvr/internal/comm"
	"bgpvr/internal/img"
)

// denseTile is the tile composite and gather as they were before the
// gather carried only spans, kept as the reference the span path is
// compared against: the whole accumulator cleared, every fragment
// (checked, in visibility order) blended under it by the decode-first
// reference loop, and every pixel of the tile copied into the image.
func denseTile(t *testing.T, out *img.Image, tile img.Rect, msgs [][]byte) {
	t.Helper()
	acc := make([]img.RGBA, tile.NumPixels())
	for _, msg := range msgs {
		if err := checkFragment(tile, msg); err != nil {
			t.Fatal(err)
		}
		blendDecoded(acc, tile, decodeFragment(msg))
	}
	tw := tile.W()
	for y := tile.Y0; y < tile.Y1; y++ {
		copy(out.Pix[y*out.W+tile.X0:][:tw], acc[(y-tile.Y0)*tw:])
	}
}

// spanTile runs the production path on copies of msgs: compositeTile's
// message, placed by rank 0's decoder into out. The accumulator comes
// from a recycler just primed with a poisoned buffer of its size, so a
// pixel read outside the spans is NaN in out.
func spanTile(t *testing.T, out *img.Image, tile img.Rect, msgs [][]byte) (runs int64) {
	t.Helper()
	mine := make([][]byte, len(msgs))
	for k, msg := range msgs {
		mine[k] = slices.Clone(msg)
	}
	img.Pixels.Put(img.Pixels.Get(tile.NumPixels()))
	b, err := compositeTile(0, tile, mine)
	if err != nil {
		t.Fatal(err)
	}
	full := img.Rect{X1: out.W, Y1: out.H}
	if err := blendFragment(out.Pix, full, b, img.GetPixels); err != nil {
		t.Fatal(err)
	}
	if getI64(b[8:]) != fragActive {
		t.Fatalf("gather message has mode %d, want active", getI64(b[8:]))
	}
	return getI64(b[fragHeadBytes:])
}

// A composited tile travels as its spans and lands in the image bit for
// bit where the dense gather put it, with no pixel outside a span read:
// a tile no fragment touches, runs crossing the tile's row ends, a fully
// dense tile, fragments leaving a gap inside a row, and fragments that
// overlap and must blend in order.
func TestTileGatherMatchesDense(t *testing.T) {
	tile := img.Rect{X0: 7, Y0: 7, X1: 15, Y1: 14} // pinOverlaps' row-crossing shape
	frag := func(pos int64, frac float64, ov img.Rect, crossing bool) []byte {
		return encodeFragment(pos, pinSub(frac, ov, crossing), ov)
	}
	left := img.Rect{X0: 7, Y0: 7, X1: 10, Y1: 11}
	right := img.Rect{X0: 12, Y0: 9, X1: 15, Y1: 14}
	cases := []struct {
		name string
		msgs [][]byte
		runs int64 // of the gather message; -1: not pinned
	}{
		{"untouched", nil, 0},
		{"row-crossing", [][]byte{frag(1, 0.5, tile, true)}, 1},
		{"dense", [][]byte{frag(1, 1, tile, false)}, 1},
		{"sparse", [][]byte{frag(1, 0.05, tile, false)}, -1},
		// Rows 9-10 hold both, with columns 10-11 between them blended by
		// neither: one span each, and the two merge into one run; rows 7-8
		// hold only the left, 11-13 only the right, a run each.
		{"gap", [][]byte{frag(1, 1, left, false), frag(2, 1, right, false)}, 6},
		{"overlapping", [][]byte{frag(1, 0.5, img.Rect{X0: 7, Y0: 8, X1: 13, Y1: 12}, true), frag(2, 1, img.Rect{X0: 9, Y0: 7, X1: 15, Y1: 13}, false)}, -1},
	}
	for _, tc := range cases {
		want, got := img.New(20, 16), img.New(20, 16)
		denseTile(t, want, tile, tc.msgs)
		runs := spanTile(t, got, tile, tc.msgs)
		if string(pixelBytes(got.Pix)) != string(pixelBytes(want.Pix)) {
			t.Errorf("%s: span gather differs from the dense gather", tc.name)
		}
		if tc.runs >= 0 && runs != tc.runs {
			t.Errorf("%s: gather message has %d runs, want %d", tc.name, runs, tc.runs)
		}
	}
}

// DirectSendBlocks's image is the dense gather's, bit for bit, with one
// and two blocks a rank, m = n and m < n, on an even frame, on an odd
// one that splits every tile unevenly, and on an 8x8 frame split into
// 1x11 tiles, three of them empty. Each case runs twice, so the second
// frame's accumulators are poisoned buffers the first released.
func TestDirectSendMatchesDenseGather(t *testing.T) {
	for _, tc := range []struct{ w, h, p, bpr, m int }{
		{96, 80, 8, 1, 8}, {96, 80, 8, 1, 3}, {96, 80, 8, 2, 4},
		{97, 81, 8, 1, 8}, {97, 81, 8, 1, 3}, {97, 81, 8, 2, 5},
		{8, 8, 11, 1, 11},
	} {
		p := tc.p
		name := fmt.Sprintf("%dx%d p=%d %d blocks/rank m=%d", tc.w, tc.h, p, tc.bpr, tc.m)
		subs, rects, order := pinScene(tc.bpr*p, tc.w, tc.h)
		pos := make([]int64, len(order))
		for k, b := range order {
			pos[b] = int64(k)
		}
		want := img.New(tc.w, tc.h)
		g := img.NewTileGrid(tc.w, tc.h, tc.m)
		for ti := 0; ti < tc.m; ti++ {
			var msgs [][]byte
			for b := range order {
				if ov := rects[b].Intersect(g.Tile(ti)); !ov.Empty() {
					msgs = append(msgs, encodeFragment(pos[b], subs[b], ov))
				}
			}
			slices.SortFunc(msgs, func(a, b []byte) int { return int(getI64(a) - getI64(b)) })
			denseTile(t, want, g.Tile(ti), msgs)
		}
		for frame := 0; frame < 2; frame++ {
			got, _ := runCompose(t, p, func(c *comm.Comm) (*img.Image, error) {
				mine, ids := blocksOf(subs, c.Rank(), p)
				return DirectSendBlocks(c, mine, ids, rects, tc.w, tc.h, tc.m, order)
			})
			if string(pixelBytes(got.Pix)) != string(pixelBytes(want.Pix)) {
				t.Errorf("%s frame %d: image differs from the dense gather's", name, frame)
			}
		}
	}
}
