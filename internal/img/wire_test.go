package img

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// wirePixels is a seeded row with the values a codec can get wrong:
// negative zero, a NaN, a denormal, and transparent pixels between
// ordinary ones.
func wirePixels(n int, seed int64) []RGBA {
	rng := rand.New(rand.NewSource(seed))
	pix := make([]RGBA, n)
	for i := range pix {
		if i%3 != 0 {
			pix[i] = randPixel(rng)
		}
	}
	negZero := float32(math.Copysign(0, -1))
	pix[1] = RGBA{R: negZero, G: float32(math.NaN()), B: math.SmallestNonzeroFloat32, A: 1}
	return pix
}

func sameBits(a, b []RGBA) bool {
	for i := range a {
		for _, c := range [4][2]float32{{a[i].R, b[i].R}, {a[i].G, b[i].G}, {a[i].B, b[i].B}, {a[i].A, b[i].A}} {
			if math.Float32bits(c[0]) != math.Float32bits(c[1]) {
				return false
			}
		}
	}
	return len(a) == len(b)
}

// codecPaths runs test on the portable byte loops and, on a
// little-endian host, on the in-place path too.
func codecPaths(t *testing.T, test func(t *testing.T)) {
	native := nativeWire
	defer func() { nativeWire = native }()
	paths := []bool{false}
	if native {
		paths = append(paths, true)
	}
	for _, nativeWire = range paths {
		t.Run(map[bool]string{false: "portable", true: "native"}[nativeWire], test)
	}
}

// The wire form is four little-endian float32s a pixel, and decoding
// returns the exact bit patterns.
func TestPixelWireRoundTrip(t *testing.T) {
	codecPaths(t, func(t *testing.T) {
		pix := wirePixels(37, 1)
		wire := make([]byte, WirePixelBytes*len(pix)+5) // room to spare is left alone
		PutPixels(wire, pix)
		for i, p := range pix {
			for k, v := range [4]float32{p.R, p.G, p.B, p.A} {
				if got := binary.LittleEndian.Uint32(wire[WirePixelBytes*i+4*k:]); got != math.Float32bits(v) {
					t.Fatalf("pixel %d component %d: wire %#x, want %#x", i, k, got, math.Float32bits(v))
				}
			}
		}
		if string(wire[len(wire)-5:]) != "\x00\x00\x00\x00\x00" {
			t.Error("PutPixels wrote past its pixels")
		}
		back := make([]RGBA, len(pix)+1)
		GetPixels(back[:len(pix)], wire)
		if !sameBits(back[:len(pix)], pix) || back[len(pix)] != (RGBA{}) {
			t.Error("GetPixels(PutPixels(pix)) != pix")
		}
	})
}

// Blending from the wire is blending the decoded pixels, bit for bit,
// wherever the message starts: a wire that is not aligned for a float32
// takes the byte loop.
func TestWireBlendsMatchSliceBlends(t *testing.T) {
	codecPaths(t, func(t *testing.T) {
		incoming, acc := wirePixels(41, 2), wirePixels(41, 3)
		buf := make([]byte, WirePixelBytes*len(incoming)+1)
		for _, off := range []int{0, 1} {
			wire := buf[off:][:WirePixelBytes*len(incoming)]
			PutPixels(wire, incoming)

			want := append([]RGBA(nil), acc...)
			UnderSlices(want, incoming)
			got := append([]RGBA(nil), acc...)
			UnderWire(got, wire)
			if !sameBits(got, want) {
				t.Errorf("offset %d: UnderWire differs from UnderSlices", off)
			}
		}
	})
}

// BenchmarkPixelCodec times the three things a composited pixel costs:
// encoding it, decoding it, and blending it under an accumulator
// straight from its encoding.
func BenchmarkPixelCodec(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(4))
	pix, acc := make([]RGBA, n), make([]RGBA, n)
	for i := range pix {
		pix[i] = randPixel(rng)
	}
	wire := make([]byte, WirePixelBytes*n)
	PutPixels(wire, pix)
	for _, op := range []struct {
		name string
		run  func()
	}{
		{"encode", func() { PutPixels(wire, pix) }},
		{"decode", func() { GetPixels(acc, wire) }},
		{"blend-from-wire", func() { UnderWire(acc, wire) }},
	} {
		b.Run(op.name, func(b *testing.B) {
			b.SetBytes(WirePixelBytes * n)
			for i := 0; i < b.N; i++ {
				op.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/px")
		})
	}
}
