package compose

import (
	"fmt"
	"testing"

	"bgpvr/internal/comm"
	"bgpvr/internal/grid"
	"bgpvr/internal/img"
	"bgpvr/internal/render"
)

func TestRadixKFactor(t *testing.T) {
	cases := []struct {
		p, target int
		want      []int
	}{
		{1, 4, []int{1}},
		{8, 2, []int{2, 2, 2}},
		{8, 8, []int{8}},
		{12, 4, []int{4, 3}},
		{6, 4, []int{3, 2}},
		{7, 4, []int{7}}, // prime
	}
	for _, c := range cases {
		got := RadixKFactor(c.p, c.target)
		prod := 1
		for _, k := range got {
			prod *= k
		}
		if prod != c.p {
			t.Errorf("RadixKFactor(%d,%d) = %v does not multiply to p", c.p, c.target, got)
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("RadixKFactor(%d,%d) = %v, want %v", c.p, c.target, got, c.want)
		}
	}
}

// Radix-k must reproduce the serial image for any factorization,
// including mixed radices and non-powers of two.
func TestRadixKMatchesSerial(t *testing.T) {
	dims := grid.Cube(18)
	const w, h = 32, 32
	ortho, orthoEye, _, _ := cameras(18, w, h)
	ref := serialReference(dims, ortho)
	cases := []struct {
		p  int
		ks []int
	}{
		{1, []int{1}},
		{4, []int{4}},
		{8, []int{2, 2, 2}},
		{8, []int{4, 2}},
		{8, []int{2, 4}},
		{12, []int{3, 2, 2}},
		{12, []int{4, 3}},
		{6, []int{6}},
	}
	for _, c := range cases {
		got := runPipeline(t, dims, c.p, c.p, w, h, ortho, orthoEye,
			func(cm *comm.Comm, sub *render.Subimage, rects []img.Rect, w, h, m int, order []int) (*img.Image, error) {
				return RadixK(cm, sub, w, h, c.ks, order)
			})
		if d := img.MaxDiff(got, ref); d > 2e-5 {
			t.Errorf("p=%d ks=%v: max diff %v", c.p, c.ks, d)
		}
	}
}

func TestRadixKRejectsBadFactors(t *testing.T) {
	w := comm.NewWorld(4)
	err := w.Run(func(c *comm.Comm) error {
		if _, err := RadixK(c, &render.Subimage{}, 8, 8, []int{3}, []int{0, 1, 2, 3}); err == nil {
			return fmt.Errorf("bad factors accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// One radix-k round is direct-send with a compositor a rank: the same
// tiles, the same fragments and the same gather, so the same image bit
// for bit and the same bytes. Only the message count differs, by the
// round's empty messages. The 8x8 frame on 11 ranks has three empty
// tiles, which receive only empty messages and gather nothing.
func TestRadixKOneRoundIsDirectSend(t *testing.T) {
	for _, tc := range []struct{ w, h, p int }{{96, 80, 8}, {97, 81, 8}, {8, 8, 11}} {
		p := tc.p
		subs, rects, order := pinScene(p, tc.w, tc.h)
		want, ds := runCompose(t, p, func(c *comm.Comm) (*img.Image, error) {
			return DirectSend(c, subs[c.Rank()], rects, tc.w, tc.h, p, order)
		})
		got, rk := runCompose(t, p, func(c *comm.Comm) (*img.Image, error) {
			return RadixK(c, subs[c.Rank()], tc.w, tc.h, []int{p}, order)
		})
		if string(pixelBytes(got.Pix)) != string(pixelBytes(want.Pix)) {
			t.Errorf("%dx%d: radix-k [%d] image differs from direct-send m=%d", tc.w, tc.h, p, p)
		}
		if rk.TotalBytes != ds.TotalBytes {
			t.Errorf("%dx%d: radix-k [%d] moved %d bytes, direct-send m=%d %d", tc.w, tc.h, p, rk.TotalBytes, p, ds.TotalBytes)
		}
	}
}
