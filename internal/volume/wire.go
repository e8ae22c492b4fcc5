package volume

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The float32 wire codec: a sample travels, in files and in messages, as
// its four IEEE-754 bytes in one of two byte orders. These are the only
// functions that move samples between []float32 and bytes; the readers
// decode a field straight out of the bytes they receive (FloatDecoder),
// so no sample is copied between the two.

// ByteOrder is the order of a sample's four bytes on the wire.
type ByteOrder uint8

// The two byte orders in use: raw files, h5lite datasets and messages
// are little-endian, netCDF is big-endian.
const (
	LittleEndian ByteOrder = iota
	BigEndian
)

// WireFloatBytes is the encoded size of one sample.
const WireFloatBytes = 4

// The four loops below are one loop written for each direction and
// order. Each steps four samples at a time over re-sliced operands,
// which is what lets the compiler drop the bounds checks and is worth
// 2-2.5x (1.04 -> 0.40-0.55 ns a sample decoding); a byte-order parameter,
// interface or function value, costs an indirect call a sample instead.

// PutFloats encodes src into the first WireFloatBytes*len(src) bytes of
// dst.
func PutFloats(dst []byte, src []float32, order ByteOrder) {
	dst = dst[:WireFloatBytes*len(src)]
	if order == BigEndian {
		for ; len(src) >= 4 && len(dst) >= 16; dst, src = dst[16:], src[4:] {
			binary.BigEndian.PutUint32(dst[0:], math.Float32bits(src[0]))
			binary.BigEndian.PutUint32(dst[4:], math.Float32bits(src[1]))
			binary.BigEndian.PutUint32(dst[8:], math.Float32bits(src[2]))
			binary.BigEndian.PutUint32(dst[12:], math.Float32bits(src[3]))
		}
		for i, v := range src {
			binary.BigEndian.PutUint32(dst[WireFloatBytes*i:], math.Float32bits(v))
		}
		return
	}
	for ; len(src) >= 4 && len(dst) >= 16; dst, src = dst[16:], src[4:] {
		binary.LittleEndian.PutUint32(dst[0:], math.Float32bits(src[0]))
		binary.LittleEndian.PutUint32(dst[4:], math.Float32bits(src[1]))
		binary.LittleEndian.PutUint32(dst[8:], math.Float32bits(src[2]))
		binary.LittleEndian.PutUint32(dst[12:], math.Float32bits(src[3]))
	}
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[WireFloatBytes*i:], math.Float32bits(v))
	}
}

// GetFloats decodes len(dst) samples from the start of src.
func GetFloats(dst []float32, src []byte, order ByteOrder) {
	src = src[:WireFloatBytes*len(dst)]
	if order == BigEndian {
		for ; len(dst) >= 4 && len(src) >= 16; dst, src = dst[4:], src[16:] {
			dst[0] = math.Float32frombits(binary.BigEndian.Uint32(src[0:]))
			dst[1] = math.Float32frombits(binary.BigEndian.Uint32(src[4:]))
			dst[2] = math.Float32frombits(binary.BigEndian.Uint32(src[8:]))
			dst[3] = math.Float32frombits(binary.BigEndian.Uint32(src[12:]))
		}
		for i := range dst {
			dst[i] = math.Float32frombits(binary.BigEndian.Uint32(src[WireFloatBytes*i:]))
		}
		return
	}
	for ; len(dst) >= 4 && len(src) >= 16; dst, src = dst[4:], src[16:] {
		dst[0] = math.Float32frombits(binary.LittleEndian.Uint32(src[0:]))
		dst[1] = math.Float32frombits(binary.LittleEndian.Uint32(src[4:]))
		dst[2] = math.Float32frombits(binary.LittleEndian.Uint32(src[8:]))
		dst[3] = math.Float32frombits(binary.LittleEndian.Uint32(src[12:]))
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[WireFloatBytes*i:]))
	}
}

// FloatDecoder is an io.Writer that decodes the byte stream written to
// it into a []float32. The stream may be cut anywhere: a sample whose
// bytes straddle two Writes (a file domain need not end on a sample
// boundary, so one float can arrive in two aggregators' messages) is
// carried over in at most three bytes.
type FloatDecoder struct {
	order ByteOrder
	rest  []float32 // the samples not yet decoded
	carry [WireFloatBytes]byte
	nc    int // bytes of a cut sample held in carry
}

// NewFloatDecoder returns a decoder that fills dst in order.
func NewFloatDecoder(dst []float32, order ByteOrder) *FloatDecoder {
	return &FloatDecoder{order: order, rest: dst}
}

// Write decodes p. Bytes beyond the last sample of dst are an error and
// nothing of p is decoded.
func (d *FloatDecoder) Write(p []byte) (int, error) {
	if room := WireFloatBytes*len(d.rest) - d.nc; len(p) > room {
		return 0, fmt.Errorf("volume: %d bytes for the %d left to decode", len(p), room)
	}
	n := len(p)
	if d.nc > 0 {
		k := copy(d.carry[d.nc:], p)
		d.nc += k
		p = p[k:]
		if d.nc < WireFloatBytes {
			return n, nil
		}
		GetFloats(d.rest[:1], d.carry[:], d.order)
		d.rest = d.rest[1:]
		d.nc = 0
	}
	whole := len(p) / WireFloatBytes
	GetFloats(d.rest[:whole], p, d.order)
	d.rest = d.rest[whole:]
	d.nc = copy(d.carry[:], p[WireFloatBytes*whole:])
	return n, nil
}

// Close reports an error unless the stream filled dst exactly.
func (d *FloatDecoder) Close() error {
	if len(d.rest) > 0 || d.nc > 0 {
		return fmt.Errorf("volume: stream ended %d bytes short of the field",
			WireFloatBytes*len(d.rest)-d.nc)
	}
	return nil
}
