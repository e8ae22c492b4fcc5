package netcdf

import (
	"bufio"
	"fmt"
	"os"

	"bgpvr/internal/grid"
	"bgpvr/internal/volume"
)

// ComputeLayout assigns VSize and Begin for every variable: fixed
// variables first, in definition order, immediately after the header;
// record variables after them, consecutively within each record. It
// mirrors the netCDF classic layout rules, including the special case
// that a lone record variable is not padded between records.
func ComputeLayout(f *File) error {
	oneRecVar := 0
	for i := range f.Vars {
		if f.IsRecordVar(&f.Vars[i]) {
			oneRecVar++
		}
	}
	for i := range f.Vars {
		v := &f.Vars[i]
		base := f.numElems(v) * v.Type.Size()
		if f.IsRecordVar(v) && oneRecVar == 1 {
			v.VSize = base // no inter-record padding for a lone record var
		} else {
			v.VSize = pad4(base)
		}
		if !f.IsRecordVar(v) && v.VSize > f.Version.MaxVarSize() {
			return fmt.Errorf("netcdf: variable %q (%d bytes) exceeds %v limit %d — use record variables or CDF-5, as the paper's scientists had to",
				v.Name, v.VSize, f.Version, f.Version.MaxVarSize())
		}
	}
	// Header size is independent of the Begin values.
	cur := int64(len(EncodeHeader(f)))
	for i := range f.Vars {
		if v := &f.Vars[i]; !f.IsRecordVar(v) {
			v.Begin = cur
			cur += v.VSize
		}
	}
	for i := range f.Vars {
		if v := &f.Vars[i]; f.IsRecordVar(v) {
			v.Begin = cur
			cur += v.VSize
		}
	}
	if f.Version == V1 {
		for i := range f.Vars {
			if f.Vars[i].Begin > f.Version.MaxVarSize() {
				return fmt.Errorf("netcdf: variable %q begins past the CDF-1 offset limit", f.Vars[i].Name)
			}
		}
	}
	return nil
}

// NewVolumeFile builds the File structure for one time step of a VH-1
// style dataset: the given variables over a dims grid, each float32.
//
// When record is true, the Z dimension is the record (unlimited)
// dimension and every variable is a record variable whose records are 2D
// X*Y slices — the exact layout of Fig 8. When record is false, the
// variables are fixed and each is stored contiguously (possible only
// when the per-variable size fits the version's limit, hence the
// pairing of record=false with V5 for large grids).
func NewVolumeFile(version Version, dims grid.IVec3, varNames []string, record bool) (*File, error) {
	f := &File{Version: version}
	if record {
		f.NumRecs = int64(dims.Z)
		f.Dims = []Dim{{Name: "z", Len: 0}, {Name: "y", Len: int64(dims.Y)}, {Name: "x", Len: int64(dims.X)}}
	} else {
		f.Dims = []Dim{{Name: "z", Len: int64(dims.Z)}, {Name: "y", Len: int64(dims.Y)}, {Name: "x", Len: int64(dims.X)}}
	}
	f.GAtts = []Att{{Name: "source", Type: Char, Text: "bgpvr synthetic supernova (VH-1 analogue)"}}
	f.Vars = make([]Var, 0, len(varNames))
	for _, n := range varNames {
		f.Vars = append(f.Vars, Var{
			Name:   n,
			Type:   Float,
			DimIDs: []int32{0, 1, 2},
			Atts:   []Att{{Name: "units", Type: Char, Text: "normalized"}},
		})
	}
	if err := ComputeLayout(f); err != nil {
		return nil, err
	}
	return f, nil
}

// FileSize returns the total byte size of the laid-out file.
func FileSize(f *File) int64 {
	end := int64(len(EncodeHeader(f)))
	for i := range f.Vars {
		if v := &f.Vars[i]; !f.IsRecordVar(v) {
			if e := v.Begin + v.VSize; e > end {
				end = e
			}
		}
	}
	if rs := f.RecSize(); rs > 0 {
		// Records start at the first record var's Begin.
		first := int64(-1)
		for i := range f.Vars {
			if f.IsRecordVar(&f.Vars[i]) {
				first = f.Vars[i].Begin
				break
			}
		}
		if first >= 0 {
			if e := first + rs*f.NumRecs; e > end {
				end = e
			}
		}
	}
	return end
}

// WriteFile writes the complete file: header, fixed variables in layout
// order, then all records interleaved. gen supplies the float32 values
// for (variable index, record index); for fixed variables it is called
// once with rec == -1 and must return the whole variable. Only Float
// variables are supported by this writer (the paper's data type).
func WriteFile(path string, f *File, gen func(varIdx int, rec int64) []float32) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(out, 1<<20)
	fail := func(err error) error {
		out.Close()
		return err
	}

	if _, err := w.Write(EncodeHeader(f)); err != nil {
		return fail(err)
	}
	var enc []byte // one variable's encoded values, reused
	writeVals := func(vals []float32, want, padTo int64) error {
		if int64(len(vals))*4 != want {
			return fmt.Errorf("netcdf: generator returned %d bytes, want %d", len(vals)*4, want)
		}
		if int64(cap(enc)) < want {
			enc = make([]byte, want)
		}
		volume.PutFloats(enc, vals, volume.BigEndian)
		if _, err := w.Write(enc[:want]); err != nil {
			return err
		}
		for pad := padTo - want; pad > 0; pad-- {
			if err := w.WriteByte(0); err != nil {
				return err
			}
		}
		return nil
	}

	for i := range f.Vars {
		v := &f.Vars[i]
		if f.IsRecordVar(v) || v.Type != Float {
			if !f.IsRecordVar(v) {
				return fail(fmt.Errorf("netcdf: WriteFile supports only float variables, %q is %v", v.Name, v.Type))
			}
			continue
		}
		want := f.numElems(v) * 4
		if err := writeVals(gen(i, -1), want, v.VSize); err != nil {
			return fail(err)
		}
	}
	for rec := int64(0); rec < f.NumRecs; rec++ {
		for i := range f.Vars {
			v := &f.Vars[i]
			if !f.IsRecordVar(v) {
				continue
			}
			if v.Type != Float {
				return fail(fmt.Errorf("netcdf: WriteFile supports only float variables, %q is %v", v.Name, v.Type))
			}
			want := f.numElems(v) * 4
			if err := writeVals(gen(i, rec), want, v.VSize); err != nil {
				return fail(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	return out.Close()
}
