package netcdf

import (
	"fmt"
	"io"

	"bgpvr/internal/grid"
	"bgpvr/internal/vfile"
	"bgpvr/internal/volume"
)

// maxHeaderBytes bounds how much of a file ReadHeader will scan. Real
// headers for the datasets in this study are well under a kilobyte.
const maxHeaderBytes = 4 << 20

// ReadHeader parses the header of an open file.
func ReadHeader(f vfile.File) (*File, error) {
	n := f.Size()
	if n > maxHeaderBytes {
		n = maxHeaderBytes
	}
	b := make([]byte, n)
	if _, err := f.ReadAt(b, 0); err != nil && err != io.EOF {
		return nil, err
	}
	h, err := DecodeHeader(b)
	if err == errShortHeader && n == maxHeaderBytes {
		return nil, fmt.Errorf("netcdf: header exceeds %d bytes", maxHeaderBytes)
	}
	return h, err
}

// GridDims returns the (X, Y, Z) grid described by a 3D variable,
// resolving the record dimension's length to NumRecs.
func (f *File) GridDims(v *Var) (grid.IVec3, error) {
	if len(v.DimIDs) != 3 {
		return grid.IVec3{}, fmt.Errorf("netcdf: variable %q is rank %d, want 3", v.Name, len(v.DimIDs))
	}
	dimLen := func(i int) int64 {
		d := f.Dims[v.DimIDs[i]]
		if d.IsRecord() {
			return f.NumRecs
		}
		return d.Len
	}
	return grid.IVec3{X: int(dimLen(2)), Y: int(dimLen(1)), Z: int(dimLen(0))}, nil
}

// VarRuns returns the byte runs needed to read the subarray ext of a 3D
// variable v. For a fixed variable the runs are a plain subarray
// flattening from Begin. For a record variable each Z plane lives in its
// own record, at Begin + z*RecSize — so the runs of even a large extent
// are scattered through the file in record-sized strides (Fig 8).
func (f *File) VarRuns(v *Var, ext grid.Extent) ([]grid.Run, error) {
	dims, err := f.GridDims(v)
	if err != nil {
		return nil, err
	}
	ext = ext.Intersect(grid.WholeGrid(dims))
	if ext.Empty() {
		return nil, nil
	}
	es := int(v.Type.Size())
	if !f.IsRecordVar(v) {
		return grid.Runs(dims, ext, es, v.Begin), nil
	}
	// One list for all records, sized from the extent; AppendRuns
	// coalesces the adjacent records of a lone record variable.
	recSize := f.RecSize()
	plane := grid.IVec3{X: dims.X, Y: dims.Y, Z: 1}
	planeExt := grid.Ext(grid.I(ext.Lo.X, ext.Lo.Y, 0), grid.I(ext.Hi.X, ext.Hi.Y, 1))
	runs := make([]grid.Run, 0, ext.Size().Z*grid.RunCount(plane, planeExt))
	for z := ext.Lo.Z; z < ext.Hi.Z; z++ {
		runs = grid.AppendRuns(runs, plane, planeExt, es, v.Begin+int64(z)*recSize)
	}
	return runs, nil
}

// ReadVarExtent reads the subarray ext of float variable v into a
// Field. It issues one ReadAt per run (the independent path; collective
// reads go through package mpiio using the same VarRuns).
func ReadVarExtent(vf vfile.File, f *File, v *Var, ext grid.Extent) (*volume.Field, error) {
	if v.Type != Float {
		return nil, fmt.Errorf("netcdf: ReadVarExtent supports float variables, %q is %v", v.Name, v.Type)
	}
	dims, err := f.GridDims(v)
	if err != nil {
		return nil, err
	}
	runs, err := f.VarRuns(v, ext)
	if err != nil {
		return nil, err
	}
	fld := volume.NewField(dims, ext.Intersect(grid.WholeGrid(dims)))
	dec := volume.NewFloatDecoder(fld.Data, volume.BigEndian)
	if err := vfile.ReadRuns(vf, runs, 0, dec); err != nil {
		return nil, fmt.Errorf("netcdf: %w", err)
	}
	if err := dec.Close(); err != nil {
		return nil, fmt.Errorf("netcdf: %w", err)
	}
	return fld, nil
}

// DecodeFloats decodes big-endian float32 bytes into dst.
func DecodeFloats(b []byte, dst []float32) { volume.GetFloats(dst, b, volume.BigEndian) }
