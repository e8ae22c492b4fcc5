package compose

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"bgpvr/internal/img"
	"bgpvr/internal/render"
)

// fragment and decodeFragment are what the compositor did before it
// blended from the wire (PR 15), kept as the reference the production
// path is compared against and sharing no code with it: a fragment
// materialized as one pixel per pixel of its rectangle, transparent
// where inactive.
type fragment struct {
	pos  int64
	rect img.Rect
	pix  []img.RGBA
}

func decodeFragment(b []byte) fragment {
	i64 := func(off int) int { return int(int64(binary.LittleEndian.Uint64(b[off:]))) }
	pixel := func(off int) (p img.RGBA) {
		for k, c := range []*float32{&p.R, &p.G, &p.B, &p.A} {
			*c = math.Float32frombits(binary.LittleEndian.Uint32(b[off+4*k:]))
		}
		return p
	}
	f := fragment{pos: int64(i64(0)), rect: img.Rect{X0: i64(16), Y0: i64(24), X1: i64(32), Y1: i64(40)}}
	f.pix = make([]img.RGBA, f.rect.NumPixels())
	if i64(8) == fragDense {
		for i := range f.pix {
			f.pix[i] = pixel(48 + 16*i)
		}
		return f
	}
	nseg := i64(48)
	next := 56 + 16*nseg
	for s := 0; s < nseg; s++ {
		for i := i64(56 + 16*s); i < i64(64+16*s); i++ {
			f.pix[i] = pixel(next)
			next += 16
		}
	}
	return f
}

// blendDecoded is the reference compositor loop: every pixel of the
// decoded rectangle, inactive ones included, goes under the accumulator.
func blendDecoded(acc []img.RGBA, tile img.Rect, f fragment) {
	tw, fi := tile.W(), 0
	for y := f.rect.Y0; y < f.rect.Y1; y++ {
		for x := f.rect.X0; x < f.rect.X1; x++ {
			a, b := &acc[(y-tile.Y0)*tw+x-tile.X0], f.pix[fi]
			fi++
			t := 1 - a.A
			a.R += t * b.R
			a.G += t * b.G
			a.B += t * b.B
			a.A += t * b.A
		}
	}
}

// makeSub builds a subimage with a given fraction of active pixels.
func makeSub(rect img.Rect, activeFrac float64, seed int64) *render.Subimage {
	rng := rand.New(rand.NewSource(seed))
	sub := &render.Subimage{Rect: rect, Pix: make([]img.RGBA, rect.NumPixels())}
	for i := range sub.Pix {
		if rng.Float64() < activeFrac {
			a := rng.Float32()
			sub.Pix[i] = img.RGBA{R: rng.Float32() * a, G: rng.Float32() * a, B: rng.Float32() * a, A: a}
		}
	}
	return sub
}

// Round trip: decode(encode(sub, ov)) reproduces the overlap pixels for
// any activity level (both wire formats).
func TestFragmentCodecRoundTrip(t *testing.T) {
	rect := img.Rect{X0: 3, Y0: 5, X1: 23, Y1: 17}
	for _, frac := range []float64{0, 0.05, 0.5, 1} {
		sub := makeSub(rect, frac, int64(frac*100)+1)
		for _, ov := range []img.Rect{rect, {X0: 5, Y0: 6, X1: 12, Y1: 10}} {
			f := decodeFragment(encodeFragment(7, sub, ov))
			if f.pos != 7 || f.rect != ov {
				t.Fatalf("frac=%v: decoded rect %v, want %v", frac, f.rect, ov)
			}
			i := 0
			for y := ov.Y0; y < ov.Y1; y++ {
				for x := ov.X0; x < ov.X1; x++ {
					if f.pix[i] != sub.At(x, y) {
						t.Fatalf("frac=%v ov=%v: pixel (%d,%d) = %v, want %v",
							frac, ov, x, y, f.pix[i], sub.At(x, y))
					}
					i++
				}
			}
		}
	}
}

// Blending a fragment straight from its wire bytes gives the accumulator
// the reference gives by decoding it first, bit for bit, in both formats
// and over an accumulator that is already partly opaque.
func TestBlendFromWireMatchesDecodeThenBlend(t *testing.T) {
	tile := img.Rect{X0: 1, Y0: 2, X1: 30, Y1: 20}
	for _, frac := range pinFracs {
		for _, o := range pinOverlaps {
			msg := encodeFragment(3, pinSub(frac, o.ov, o.crossing), o.ov)
			want := makeSub(tile, 0.7, 99).Pix
			got := append([]img.RGBA(nil), want...)
			blendDecoded(want, tile, decodeFragment(msg))
			if err := blendFragment(got, tile, msg, img.UnderWire); err != nil {
				t.Fatalf("frac=%v %s: %v", frac, o.name, err)
			}
			if string(pixelBytes(got)) != string(pixelBytes(want)) {
				t.Errorf("frac=%v %s: blend from wire differs from decode-then-blend", frac, o.name)
			}
		}
	}
}

// Sparse fragments compress; dense ones do not regress.
func TestFragmentActivePixelCompression(t *testing.T) {
	rect := img.Rect{X0: 0, Y0: 0, X1: 64, Y1: 64}
	sparse := makeSub(rect, 0.02, 2)
	dense := makeSub(rect, 0.98, 3)
	sparseBytes := len(encodeFragment(0, sparse, rect))
	denseBytes := len(encodeFragment(0, dense, rect))
	full := fragHeadBytes + 16*rect.NumPixels()
	if sparseBytes > full/4 {
		t.Errorf("sparse fragment %d bytes, full is %d — compression missing", sparseBytes, full)
	}
	if denseBytes > full {
		t.Errorf("dense fragment %d bytes exceeds dense format %d", denseBytes, full)
	}
	// An entirely empty fragment is tiny.
	empty := makeSub(rect, 0, 4)
	if n := len(encodeFragment(0, empty, rect)); n > 64 {
		t.Errorf("empty fragment = %d bytes", n)
	}
}
