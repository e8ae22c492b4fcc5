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

// accumulateRound is the radix-k round's blend before it folded in
// place: every piece, mine included, goes under a transparent
// accumulator in group order, which is then copied back over mine.
func accumulateRound(mine []img.RGBA, wires [][]byte, digit int) {
	acc := make([]img.RGBA, len(mine))
	for d, b := range wires {
		if d == digit {
			img.UnderSlices(acc, mine)
		} else {
			img.UnderWire(acc, b)
		}
	}
	copy(mine, acc)
}

// foldRound must give accumulateRound's bits for every group size and
// position in it, on random, sparse, opaque and transparent pieces.
func TestRoundFoldMatchesAccumulate(t *testing.T) {
	const n = 37
	piece := func(kind string, seed int64) []img.RGBA {
		frac := map[string]float64{"random": 1, "sparse": 0.1, "opaque": 1, "transparent": 0}[kind]
		pix := makeSub(img.Rect{X1: n, Y1: 1}, frac, seed).Pix
		if kind == "opaque" {
			for i := range pix {
				pix[i].A = 1
			}
		}
		return pix
	}
	encode := func(pix []img.RGBA) []byte {
		b := make([]byte, img.WirePixelBytes*len(pix))
		img.PutPixels(b, pix)
		return b
	}
	seed := int64(0)
	for k := 2; k <= 8; k++ {
		for digit := 0; digit < k; digit++ {
			for _, kind := range []string{"random", "sparse", "opaque", "transparent"} {
				pieces := make([][]img.RGBA, k)
				for d := range pieces {
					seed++
					pieces[d] = piece(kind, seed)
				}
				// Each blend gets its own copies: foldRound releases the
				// wires, and both write mine.
				run := func(fold func([]img.RGBA, [][]byte, int)) []byte {
					mine := append([]img.RGBA(nil), pieces[digit]...)
					wires := make([][]byte, k)
					for d := range wires {
						if d != digit {
							wires[d] = encode(pieces[d])
						}
					}
					fold(mine, wires, digit)
					return pixelBytes(mine)
				}
				if got, want := run(foldRound), run(accumulateRound); string(got) != string(want) {
					t.Errorf("k=%d digit=%d %s: in-place fold differs from the accumulator", k, digit, kind)
				}
			}
		}
	}
}
