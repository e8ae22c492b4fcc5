package netcdf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// List tags in the header grammar.
const (
	tagDimension = 0x0A
	tagVariable  = 0x0B
	tagAttribute = 0x0C
)

// errShortHeader reports that decoding ran past the available bytes.
var errShortHeader = errors.New("netcdf: truncated header")

// enc builds a big-endian header byte stream.
type enc struct {
	v Version
	b []byte
}

func (e *enc) u32(x uint32) {
	var t [4]byte
	binary.BigEndian.PutUint32(t[:], x)
	e.b = append(e.b, t[:]...)
}

func (e *enc) u64(x uint64) {
	var t [8]byte
	binary.BigEndian.PutUint64(t[:], x)
	e.b = append(e.b, t[:]...)
}

// nonNeg writes a size/count: 4 bytes for CDF-1/2, 8 bytes for CDF-5.
func (e *enc) nonNeg(x int64) {
	if e.v == V5 {
		e.u64(uint64(x))
	} else {
		e.u32(uint32(x))
	}
}

// offset writes a file offset: 4 bytes for CDF-1, 8 otherwise.
func (e *enc) offset(x int64) {
	if e.v == V1 {
		e.u32(uint32(x))
	} else {
		e.u64(uint64(x))
	}
}

// name writes a counted, 4-byte-padded name string.
func (e *enc) name(s string) {
	e.nonNeg(int64(len(s)))
	e.b = append(e.b, s...)
	for pad := pad4(int64(len(s))) - int64(len(s)); pad > 0; pad-- {
		e.b = append(e.b, 0)
	}
}

// attValues writes an attribute's type, count and padded values.
func (e *enc) attValues(a Att) {
	e.u32(uint32(a.Type))
	e.nonNeg(a.nelems())
	start := int64(len(e.b))
	switch a.Type {
	case Char, Byte:
		e.b = append(e.b, a.Text...)
		for _, v := range a.Values { // numeric byte attrs
			e.b = append(e.b, byte(int8(v)))
		}
	case Short:
		for _, v := range a.Values {
			var t [2]byte
			binary.BigEndian.PutUint16(t[:], uint16(int16(v)))
			e.b = append(e.b, t[:]...)
		}
	case Int:
		for _, v := range a.Values {
			e.u32(uint32(int32(v)))
		}
	case Float:
		for _, v := range a.Values {
			e.u32(math.Float32bits(float32(v)))
		}
	case Double:
		for _, v := range a.Values {
			e.u64(math.Float64bits(v))
		}
	}
	used := int64(len(e.b)) - start
	for pad := pad4(used) - used; pad > 0; pad-- {
		e.b = append(e.b, 0)
	}
}

// attList writes an attribute list (or ABSENT).
func (e *enc) attList(atts []Att) {
	if len(atts) == 0 {
		e.u32(0)
		e.nonNeg(0)
		return
	}
	e.u32(tagAttribute)
	e.nonNeg(int64(len(atts)))
	for _, a := range atts {
		e.name(a.Name)
		e.attValues(a)
	}
}

// EncodeHeader serializes the file's header. Var Begin/VSize fields must
// already be set (see ComputeLayout). The encoded length depends only on
// structure (names, counts, version), never on the offset values, so the
// layout computation can encode once with zero begins to learn the size.
func EncodeHeader(f *File) []byte {
	e := &enc{v: f.Version}
	e.b = append(e.b, 'C', 'D', 'F', byte(f.Version))
	e.nonNeg(f.NumRecs)

	if len(f.Dims) == 0 {
		e.u32(0)
		e.nonNeg(0)
	} else {
		e.u32(tagDimension)
		e.nonNeg(int64(len(f.Dims)))
		for _, d := range f.Dims {
			e.name(d.Name)
			e.nonNeg(d.Len)
		}
	}

	e.attList(f.GAtts)

	if len(f.Vars) == 0 {
		e.u32(0)
		e.nonNeg(0)
	} else {
		e.u32(tagVariable)
		e.nonNeg(int64(len(f.Vars)))
		for i := range f.Vars {
			v := &f.Vars[i]
			e.name(v.Name)
			e.nonNeg(int64(len(v.DimIDs)))
			for _, id := range v.DimIDs {
				// Dimension ids stay 4 bytes in every classic version.
				e.u32(uint32(id))
			}
			e.attList(v.Atts)
			e.u32(uint32(v.Type))
			e.nonNeg(v.VSize)
			e.offset(v.Begin)
		}
	}
	return e.b
}

// dec is a cursor over header bytes.
type dec struct {
	v   Version
	b   []byte
	pos int
	err error
}

func (d *dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.pos+n > len(d.b) || d.pos+n < 0 {
		d.fail(errShortHeader)
		return nil
	}
	out := d.b[d.pos : d.pos+n]
	d.pos += n
	return out
}

func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *dec) nonNeg() int64 {
	if d.v == V5 {
		return d.positive(d.u64())
	}
	return int64(d.u32())
}

func (d *dec) offset() int64 {
	if d.v == V1 {
		return int64(d.u32())
	}
	return d.positive(d.u64())
}

// positive reads a 64-bit count, size or offset, which the format
// defines as non-negative: one with the top bit set fails the decode
// instead of reaching a make or an offset computation negative.
func (d *dec) positive(x uint64) int64 {
	if int64(x) < 0 {
		d.fail(fmt.Errorf("netcdf: negative 64-bit field 0x%x", x))
		return 0
	}
	return int64(x)
}

func (d *dec) name() string {
	n := d.nonNeg()
	if n < 0 || n > 1<<20 {
		d.fail(fmt.Errorf("netcdf: unreasonable name length %d", n))
		return ""
	}
	b := d.take(int(pad4(n)))
	if b == nil {
		return ""
	}
	return string(b[:n])
}

func (d *dec) attList() []Att {
	tag := d.u32()
	n := d.nonNeg()
	if d.err != nil {
		return nil
	}
	if tag == 0 && n == 0 {
		return nil
	}
	if tag != tagAttribute {
		d.fail(fmt.Errorf("netcdf: expected attribute tag, got 0x%x", tag))
		return nil
	}
	// Never preallocate from an attacker-controlled count: a corrupt
	// header must fail with an error, not an enormous allocation.
	atts := make([]Att, 0, min(n, 64))
	for i := int64(0); i < n && d.err == nil; i++ {
		var a Att
		a.Name = d.name()
		a.Type = Type(d.u32())
		ne := d.nonNeg()
		if sz := a.Type.Size(); sz == 0 {
			d.fail(fmt.Errorf("netcdf: attribute %q has unknown type %d", a.Name, a.Type))
			return nil
		}
		if ne < 0 || ne > int64(len(d.b)) {
			d.fail(fmt.Errorf("netcdf: attribute %q claims %d elements", a.Name, ne))
			return nil
		}
		raw := d.take(int(pad4(ne * a.Type.Size())))
		if raw == nil {
			return nil
		}
		switch a.Type {
		case Char:
			a.Text = string(raw[:ne])
		case Byte:
			for i := int64(0); i < ne; i++ {
				a.Values = append(a.Values, float64(int8(raw[i])))
			}
		case Short:
			for i := int64(0); i < ne; i++ {
				a.Values = append(a.Values, float64(int16(binary.BigEndian.Uint16(raw[2*i:]))))
			}
		case Int:
			for i := int64(0); i < ne; i++ {
				a.Values = append(a.Values, float64(int32(binary.BigEndian.Uint32(raw[4*i:]))))
			}
		case Float:
			for i := int64(0); i < ne; i++ {
				a.Values = append(a.Values, float64(math.Float32frombits(binary.BigEndian.Uint32(raw[4*i:]))))
			}
		case Double:
			for i := int64(0); i < ne; i++ {
				a.Values = append(a.Values, math.Float64frombits(binary.BigEndian.Uint64(raw[8*i:])))
			}
		}
		atts = append(atts, a)
	}
	return atts
}

// DecodeHeader parses a header from the leading bytes of a file.
func DecodeHeader(b []byte) (*File, error) {
	if len(b) < 4 || b[0] != 'C' || b[1] != 'D' || b[2] != 'F' {
		return nil, errors.New("netcdf: bad magic")
	}
	v := Version(b[3])
	if v != V1 && v != V2 && v != V5 {
		return nil, fmt.Errorf("netcdf: unsupported version %d", b[3])
	}
	d := &dec{v: v, b: b, pos: 4}
	f := &File{Version: v}
	f.NumRecs = d.nonNeg()

	tag := d.u32()
	n := d.nonNeg()
	if d.err == nil && !(tag == 0 && n == 0) {
		if tag != tagDimension {
			return nil, fmt.Errorf("netcdf: expected dimension tag, got 0x%x", tag)
		}
		for i := int64(0); i < n && d.err == nil; i++ {
			var dim Dim
			dim.Name = d.name()
			dim.Len = d.nonNeg()
			f.Dims = append(f.Dims, dim)
		}
	}

	f.GAtts = d.attList()

	tag = d.u32()
	n = d.nonNeg()
	if d.err == nil && !(tag == 0 && n == 0) {
		if tag != tagVariable {
			return nil, fmt.Errorf("netcdf: expected variable tag, got 0x%x", tag)
		}
		for i := int64(0); i < n && d.err == nil; i++ {
			var vr Var
			vr.Name = d.name()
			rank := d.nonNeg()
			if rank < 0 || rank > 64 {
				return nil, fmt.Errorf("netcdf: variable %q has unreasonable rank %d", vr.Name, rank)
			}
			for j := int64(0); j < rank; j++ {
				vr.DimIDs = append(vr.DimIDs, int32(d.u32()))
			}
			vr.Atts = d.attList()
			vr.Type = Type(d.u32())
			vr.VSize = d.nonNeg()
			vr.Begin = d.offset()
			f.Vars = append(f.Vars, vr)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	for _, vr := range f.Vars {
		for _, id := range vr.DimIDs {
			if int(id) < 0 || int(id) >= len(f.Dims) {
				return nil, fmt.Errorf("netcdf: variable %q references dimension %d of %d", vr.Name, id, len(f.Dims))
			}
		}
	}
	return f, nil
}
