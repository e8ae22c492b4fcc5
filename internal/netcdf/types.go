// Package netcdf is a from-scratch implementation of the netCDF classic
// file formats used by the paper's dataset: CDF-1 (classic), CDF-2
// (64-bit offset), and CDF-5 (64-bit data — the "future netCDF format
// that features 64-bit addressing" credited to Gao, Liao and Choudhary
// in §V-B). It supports dimensions, attributes, fixed ("nonrecord") and
// record variables, header parsing and encoding at the byte level, and
// subarray read planning (byte runs) for both variable kinds.
//
// The essential behaviour reproduced here is the record-variable layout
// of Fig 8: a 3D record variable is stored as one 2D slice per record,
// and the records of all record variables are interleaved record by
// record. Reading one variable out of five therefore visits small
// noncontiguous regions spread through the whole file — the root cause
// of the paper's netCDF I/O slowdown.
//
// All multi-byte values are big-endian (XDR), as in the real format.
package netcdf

import "fmt"

// Version selects the classic format variant.
type Version byte

// The three classic format versions.
const (
	V1 Version = 1 // CDF-1: 32-bit offsets, 32-bit sizes
	V2 Version = 2 // CDF-2: 64-bit offsets ("64-bit offset format")
	V5 Version = 5 // CDF-5: 64-bit offsets and sizes ("64-bit data")
)

func (v Version) String() string {
	switch v {
	case V1:
		return "CDF-1"
	case V2:
		return "CDF-2"
	case V5:
		return "CDF-5"
	default:
		return fmt.Sprintf("CDF-%d?", byte(v))
	}
}

// MaxVarSize returns the largest variable (in bytes) the version can
// represent. CDF-1 limits a variable to 4 GB (actually 2^31-4; we use
// the canonical 1<<32 - 4 large-file rule simplified to 4 GiB), which is
// exactly the constraint that forced the paper's scientists into record
// variables ("the current netCDF format limits the total size of a
// nonrecord variable to 4 GB").
func (v Version) MaxVarSize() int64 {
	switch v {
	case V1:
		return 1<<32 - 4
	default:
		return 1 << 62
	}
}

// Type is a netCDF external data type.
type Type int32

// Classic external types.
const (
	Byte   Type = 1
	Char   Type = 2
	Short  Type = 3
	Int    Type = 4
	Float  Type = 5
	Double Type = 6
)

// Size returns the external size of one element in bytes.
func (t Type) Size() int64 {
	switch t {
	case Byte, Char:
		return 1
	case Short:
		return 2
	case Int, Float:
		return 4
	case Double:
		return 8
	default:
		return 0
	}
}

func (t Type) String() string {
	switch t {
	case Byte:
		return "byte"
	case Char:
		return "char"
	case Short:
		return "short"
	case Int:
		return "int"
	case Float:
		return "float"
	case Double:
		return "double"
	default:
		return fmt.Sprintf("type(%d)", int32(t))
	}
}

// Dim is a dimension. A Len of 0 marks the record (unlimited) dimension;
// at most one may exist and it must be the first dimension of any
// record variable.
type Dim struct {
	Name string
	Len  int64
}

// IsRecord reports whether the dimension is the unlimited dimension.
func (d Dim) IsRecord() bool { return d.Len == 0 }

// Att is an attribute: a named vector of values of one type. Text
// attributes use Type Char with the bytes in Text; numeric attributes
// store values in Values (converted to the external type on write).
type Att struct {
	Name   string
	Type   Type
	Text   string
	Values []float64
}

// nelems returns the number of external elements the attribute holds.
func (a Att) nelems() int64 {
	if a.Type == Char {
		return int64(len(a.Text))
	}
	return int64(len(a.Values))
}

// Var is a variable. DimIDs index into File.Dims, slowest-varying
// first (so a 3D volume variable is [z, y, x] or [record, y, x]).
type Var struct {
	Name   string
	Type   Type
	DimIDs []int32
	Atts   []Att

	// VSize is the encoded vsize field: the byte size of one record
	// (record variables) or of the whole variable (fixed variables),
	// rounded up to a 4-byte boundary except for the single-record-
	// variable special case.
	VSize int64
	// Begin is the file offset of the variable's first byte.
	Begin int64
}

// File is a parsed or under-construction netCDF dataset.
type File struct {
	Version Version
	NumRecs int64
	Dims    []Dim
	GAtts   []Att
	Vars    []Var
}

// IsRecordVar reports whether v's first dimension is the record
// dimension.
func (f *File) IsRecordVar(v *Var) bool {
	return len(v.DimIDs) > 0 && f.Dims[v.DimIDs[0]].IsRecord()
}

// VarByName finds a variable by name.
func (f *File) VarByName(name string) (*Var, bool) {
	for i := range f.Vars {
		if f.Vars[i].Name == name {
			return &f.Vars[i], true
		}
	}
	return nil, false
}

// RecSize returns the byte size of one full record: the sum of VSize
// over all record variables (each already padded, except the
// single-record-variable special case).
func (f *File) RecSize() int64 {
	var n int64
	for i := range f.Vars {
		if f.IsRecordVar(&f.Vars[i]) {
			n += f.Vars[i].VSize
		}
	}
	return n
}

// numElems returns the element count of one record (record vars,
// excluding the record dim) or of the whole variable (fixed vars).
func (f *File) numElems(v *Var) int64 {
	n := int64(1)
	for i, id := range v.DimIDs {
		if i == 0 && f.Dims[id].IsRecord() {
			continue
		}
		n *= f.Dims[id].Len
	}
	return n
}

// pad4 rounds n up to a multiple of 4 (XDR padding).
func pad4(n int64) int64 { return (n + 3) &^ 3 }
