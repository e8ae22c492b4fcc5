package comm

import (
	"encoding/binary"
	"math"
)

// The codec helpers convert numeric slices to and from little-endian
// byte payloads for Send/Recv. They copy (no aliasing, no unsafe), one
// allocation a call, which suits what still goes through them: message
// headers, MPI-IO request and run tables, halo faces, and the operands
// of the collectives. Pixel payloads do not — the compositors write and
// blend megabytes of fragments a frame through img.PutPixels, GetPixels
// and UnderWire, straight between pixel rows and message bytes.

// F64sToBytes encodes a float64 slice.
func F64sToBytes(v []float64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// BytesToF64s decodes a float64 slice. A nil input yields nil.
func BytesToF64s(b []byte) []float64 {
	if b == nil {
		return nil
	}
	v := make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}

// F32sToBytes encodes a float32 slice.
func F32sToBytes(v []float32) []byte {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(x))
	}
	return b
}

// BytesToF32s decodes a float32 slice. A nil input yields nil.
func BytesToF32s(b []byte) []float32 {
	if b == nil {
		return nil
	}
	v := make([]float32, len(b)/4)
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return v
}

// I64sToBytes encodes an int64 slice.
func I64sToBytes(v []int64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
	}
	return b
}

// BytesToI64s decodes an int64 slice. A nil input yields nil.
func BytesToI64s(b []byte) []int64 {
	if b == nil {
		return nil
	}
	v := make([]int64, len(b)/8)
	for i := range v {
		v[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}
