package img

import (
	"encoding/binary"
	"math"
)

// The pixel wire codec: a pixel travels as its four float32 components,
// little-endian, R G B A. These are the only functions that move pixels
// between []RGBA and message bytes; the compositors encode a fragment
// once into its message and blend it straight out of the received bytes
// (UnderWire, OverWire), so no pixel is copied between the two.

// WirePixelBytes is the encoded size of one pixel.
const WirePixelBytes = 16

// PutPixels encodes src into the first WirePixelBytes*len(src) bytes of
// dst.
func PutPixels(dst []byte, src []RGBA) {
	dst = dst[:WirePixelBytes*len(src)]
	for i, p := range src {
		b := dst[WirePixelBytes*i:][:WirePixelBytes]
		binary.LittleEndian.PutUint32(b[0:], math.Float32bits(p.R))
		binary.LittleEndian.PutUint32(b[4:], math.Float32bits(p.G))
		binary.LittleEndian.PutUint32(b[8:], math.Float32bits(p.B))
		binary.LittleEndian.PutUint32(b[12:], math.Float32bits(p.A))
	}
}

// wirePixel decodes the pixel at the start of b.
func wirePixel(b []byte) RGBA {
	b = b[:WirePixelBytes]
	return RGBA{
		R: math.Float32frombits(binary.LittleEndian.Uint32(b[0:])),
		G: math.Float32frombits(binary.LittleEndian.Uint32(b[4:])),
		B: math.Float32frombits(binary.LittleEndian.Uint32(b[8:])),
		A: math.Float32frombits(binary.LittleEndian.Uint32(b[12:])),
	}
}

// GetPixels decodes len(dst) pixels from the start of src.
func GetPixels(dst []RGBA, src []byte) {
	src = src[:WirePixelBytes*len(dst)]
	for i := range dst {
		dst[i] = wirePixel(src[WirePixelBytes*i:])
	}
}

// UnderWire is UnderSlices with the incoming pixels still encoded:
// back[i] = back[i] over the i-th pixel of wire, for all of back.
func UnderWire(back []RGBA, wire []byte) {
	wire = wire[:WirePixelBytes*len(back)]
	for i := range back {
		back[i] = Over(back[i], wirePixel(wire[WirePixelBytes*i:]))
	}
}

// OverWire is OverSlices with the front pixels still encoded:
// back[i] = the i-th pixel of wire over back[i], for all of back.
func OverWire(wire []byte, back []RGBA) {
	wire = wire[:WirePixelBytes*len(back)]
	for i := range back {
		back[i] = Over(wirePixel(wire[WirePixelBytes*i:]), back[i])
	}
}
