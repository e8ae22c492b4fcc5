package img

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// The pixel wire codec: a pixel travels as its four float32 components,
// little-endian, R G B A. These are the only functions that move pixels
// between []RGBA and message bytes; every compositor encodes a fragment
// once into its message and blends it straight out of the received
// bytes (UnderWire), or places it (GetPixels), so no pixel is copied
// between the two.
//
// The byte loops below are the portable path and the specification. On
// a little-endian host an RGBA's memory already is its wire form, so
// there encoding and decoding are one copy and the blends read the
// message as pixels in place.

// WirePixelBytes is the encoded size of one pixel.
const WirePixelBytes = 16

// nativeWire is whether the host's pixel memory is the wire form. It is
// a variable so that the tests can run the portable path too.
var nativeWire = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// pixelBytes is p's memory as bytes.
func pixelBytes(p []RGBA) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(p))), WirePixelBytes*len(p))
}

// wireAsPixels is b's memory as the pixels it encodes, or nil where it
// cannot be: off a little-endian host, or when b is not aligned for a
// float32.
func wireAsPixels(b []byte) []RGBA {
	if !nativeWire || uintptr(unsafe.Pointer(unsafe.SliceData(b)))%4 != 0 {
		return nil
	}
	return unsafe.Slice((*RGBA)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/WirePixelBytes)
}

// PutPixels encodes src into the first WirePixelBytes*len(src) bytes of
// dst.
func PutPixels(dst []byte, src []RGBA) {
	dst = dst[:WirePixelBytes*len(src)]
	if nativeWire {
		copy(dst, pixelBytes(src))
		return
	}
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
	if nativeWire {
		copy(pixelBytes(dst), src)
		return
	}
	for i := range dst {
		dst[i] = wirePixel(src[WirePixelBytes*i:])
	}
}

// UnderWire is UnderSlices with the incoming pixels still encoded:
// back[i] = back[i] over the i-th pixel of wire, for all of back.
func UnderWire(back []RGBA, wire []byte) {
	wire = wire[:WirePixelBytes*len(back)]
	if incoming := wireAsPixels(wire); incoming != nil {
		UnderSlices(back, incoming)
		return
	}
	for i := range back {
		back[i] = Over(back[i], wirePixel(wire[WirePixelBytes*i:]))
	}
}
