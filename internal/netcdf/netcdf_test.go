package netcdf

import (
	"encoding/binary"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bgpvr/internal/grid"
	"bgpvr/internal/vfile"
	"bgpvr/internal/volume"
)

func mustVolumeFile(t *testing.T, v Version, dims grid.IVec3, names []string, record bool) *File {
	t.Helper()
	f, err := NewVolumeFile(v, dims, names, record)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestTypeSizes(t *testing.T) {
	sizes := map[Type]int64{Byte: 1, Char: 1, Short: 2, Int: 4, Float: 4, Double: 8, Type(99): 0}
	for ty, want := range sizes {
		if got := ty.Size(); got != want {
			t.Errorf("%v.Size() = %d, want %d", ty, got, want)
		}
	}
}

func TestVersionStringsAndLimits(t *testing.T) {
	if V1.String() != "CDF-1" || V2.String() != "CDF-2" || V5.String() != "CDF-5" {
		t.Error("version names wrong")
	}
	if V1.MaxVarSize() >= V5.MaxVarSize() {
		t.Error("CDF-1 must have the small limit")
	}
	// The paper's constraint: a 1120^3 float variable exceeds CDF-1's
	// nonrecord limit (5.6e9 > 4 GiB) but fits a record layout.
	if int64(1120)*1120*1120*4 <= V1.MaxVarSize() {
		t.Error("test premise broken")
	}
}

func TestHeaderRoundTripAllVersions(t *testing.T) {
	for _, v := range []Version{V1, V2, V5} {
		for _, record := range []bool{true, false} {
			f := mustVolumeFile(t, v, grid.I(6, 5, 4), []string{"pressure", "density"}, record)
			b := EncodeHeader(f)
			got, err := DecodeHeader(b)
			if err != nil {
				t.Fatalf("%v record=%v: %v", v, record, err)
			}
			if !reflect.DeepEqual(got, f) {
				t.Errorf("%v record=%v: round trip mismatch\n got %+v\nwant %+v", v, record, got, f)
			}
		}
	}
}

func TestHeaderRoundTripAttributeTypes(t *testing.T) {
	f := &File{
		Version: V2,
		Dims:    []Dim{{Name: "x", Len: 3}},
		GAtts: []Att{
			{Name: "title", Type: Char, Text: "odd-length"},
			{Name: "bytes", Type: Byte, Values: []float64{-1, 2, 3}},
			{Name: "shorts", Type: Short, Values: []float64{-300, 300, 7}},
			{Name: "ints", Type: Int, Values: []float64{1 << 20}},
			{Name: "floats", Type: Float, Values: []float64{1.5, -2.25}},
			{Name: "doubles", Type: Double, Values: []float64{3.14159265358979}},
		},
		Vars: []Var{{Name: "v", Type: Float, DimIDs: []int32{0}}},
	}
	if err := ComputeLayout(f); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHeader(EncodeHeader(f))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Errorf("attr round trip mismatch:\n got %+v\nwant %+v", got.GAtts, f.GAtts)
	}
}

func TestHeaderRoundTripEmptyLists(t *testing.T) {
	f := &File{Version: V1}
	got, err := DecodeHeader(EncodeHeader(f))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Dims) != 0 || len(got.Vars) != 0 || len(got.GAtts) != 0 {
		t.Errorf("empty file round trip = %+v", got)
	}
}

func TestDecodeHeaderErrors(t *testing.T) {
	if _, err := DecodeHeader([]byte("NOPE")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := DecodeHeader([]byte{'C', 'D', 'F', 3}); err == nil {
		t.Error("unknown version accepted")
	}
	f := mustVolumeFile(t, V2, grid.Cube(4), []string{"a"}, true)
	b := EncodeHeader(f)
	if _, err := DecodeHeader(b[:len(b)-3]); err == nil {
		t.Error("truncated header accepted")
	}
	// Corrupt a dimension id to be out of range.
	bad := append([]byte(nil), b...)
	// Find the variable's dimid bytes: crude but effective — flip the
	// last dimid (x, id=2) to 200 by scanning for the name "a".
	i := strings.Index(string(bad), "\x00\x00\x00\x01a\x00\x00\x00")
	if i < 0 {
		t.Fatal("could not locate variable entry")
	}
	dimid0 := i + 8 + 4 // name block, rank
	binary.BigEndian.PutUint32(bad[dimid0:], 200)
	if _, err := DecodeHeader(bad); err == nil {
		t.Error("out-of-range dimid accepted")
	}
}

func TestComputeLayoutFixedVars(t *testing.T) {
	dims := grid.I(5, 4, 3)
	f := mustVolumeFile(t, V5, dims, []string{"a", "b"}, false)
	h := int64(len(EncodeHeader(f)))
	want := dims.Count() * 4
	if f.Vars[0].VSize != want || f.Vars[1].VSize != want {
		t.Errorf("vsizes = %d, %d, want %d", f.Vars[0].VSize, f.Vars[1].VSize, want)
	}
	if f.Vars[0].Begin != h {
		t.Errorf("var a begins at %d, header is %d", f.Vars[0].Begin, h)
	}
	if f.Vars[1].Begin != h+want {
		t.Errorf("var b begins at %d", f.Vars[1].Begin)
	}
	if FileSize(f) != h+2*want {
		t.Errorf("file size = %d", FileSize(f))
	}
}

func TestComputeLayoutRecordInterleaving(t *testing.T) {
	dims := grid.I(5, 4, 3)
	names := []string{"p", "d", "vx", "vy", "vz"}
	f := mustVolumeFile(t, V1, dims, names, true)
	recVS := int64(5*4) * 4 // one 2D slice of 5x4 floats
	if f.RecSize() != 5*recVS {
		t.Errorf("record size = %d, want %d", f.RecSize(), 5*recVS)
	}
	// Variables are offset consecutively within the record.
	for i := 1; i < 5; i++ {
		if f.Vars[i].Begin != f.Vars[i-1].Begin+recVS {
			t.Errorf("var %d begin = %d, prev+vsize = %d", i, f.Vars[i].Begin, f.Vars[i-1].Begin+recVS)
		}
	}
	if FileSize(f) != f.Vars[0].Begin+f.RecSize()*int64(dims.Z) {
		t.Errorf("file size = %d", FileSize(f))
	}
}

func TestComputeLayoutCDF1Limit(t *testing.T) {
	// A fixed 1120^3 float variable must be rejected in CDF-1 — the very
	// restriction that forced record variables in the paper.
	if _, err := NewVolumeFile(V1, grid.Cube(1120), []string{"pressure"}, false); err == nil {
		t.Fatal("CDF-1 accepted an over-limit nonrecord variable")
	}
	// The same variable as a record variable is fine.
	if _, err := NewVolumeFile(V1, grid.Cube(1120), []string{"pressure"}, true); err != nil {
		t.Fatalf("record layout rejected: %v", err)
	}
	// And CDF-5 handles it as a nonrecord variable.
	if _, err := NewVolumeFile(V5, grid.Cube(1120), []string{"pressure"}, false); err != nil {
		t.Fatalf("CDF-5 rejected: %v", err)
	}
}

func TestLoneRecordVarUnpadded(t *testing.T) {
	// A single record variable of bytes with a non-multiple-of-4 record
	// is stored without inter-record padding.
	f := &File{
		Version: V1,
		NumRecs: 4,
		Dims:    []Dim{{Name: "t", Len: 0}, {Name: "x", Len: 3}},
		Vars:    []Var{{Name: "b", Type: Byte, DimIDs: []int32{0, 1}}},
	}
	if err := ComputeLayout(f); err != nil {
		t.Fatal(err)
	}
	if f.Vars[0].VSize != 3 {
		t.Errorf("lone record var vsize = %d, want 3 (unpadded)", f.Vars[0].VSize)
	}
	// Two record variables: both padded.
	f2 := &File{
		Version: V1,
		NumRecs: 4,
		Dims:    []Dim{{Name: "t", Len: 0}, {Name: "x", Len: 3}},
		Vars: []Var{
			{Name: "b", Type: Byte, DimIDs: []int32{0, 1}},
			{Name: "c", Type: Byte, DimIDs: []int32{0, 1}},
		},
	}
	if err := ComputeLayout(f2); err != nil {
		t.Fatal(err)
	}
	if f2.Vars[0].VSize != 4 || f2.Vars[1].VSize != 4 {
		t.Errorf("padded vsizes = %d, %d, want 4", f2.Vars[0].VSize, f2.Vars[1].VSize)
	}
}

func writeSupernovaFile(t *testing.T, path string, v Version, dims grid.IVec3, names []string, record bool) (*File, volume.Supernova) {
	t.Helper()
	sn := volume.Supernova{Seed: 77, Time: 1.1}
	f := mustVolumeFile(t, v, dims, names, record)
	err := WriteFile(path, f, func(varIdx int, rec int64) []float32 {
		vv := volume.Var(varIdx)
		if rec < 0 { // fixed: whole variable
			return sn.GenerateFull(vv, dims).Data
		}
		vals := make([]float32, dims.X*dims.Y)
		i := 0
		for y := 0; y < dims.Y; y++ {
			for x := 0; x < dims.X; x++ {
				vals[i] = sn.Eval(vv, dims, x, y, int(rec))
				i++
			}
		}
		return vals
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, sn
}

func TestWriteReadRoundTripRecord(t *testing.T) {
	dims := grid.I(7, 6, 5)
	names := []string{"pressure", "density", "velocity_x", "velocity_y", "velocity_z"}
	for _, ver := range []Version{V1, V2, V5} {
		path := filepath.Join(t.TempDir(), "t.nc")
		f, sn := writeSupernovaFile(t, path, ver, dims, names, true)

		vf, err := vfile.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if vf.Size() != FileSize(f) {
			t.Errorf("%v: file size %d, want %d", ver, vf.Size(), FileSize(f))
		}
		h, err := ReadHeader(vf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(h, f) {
			t.Fatalf("%v: reparsed header differs", ver)
		}
		// Read one variable's subextent and compare with the generator.
		v, ok := h.VarByName("velocity_x")
		if !ok {
			t.Fatal("velocity_x missing")
		}
		ext := grid.Ext(grid.I(1, 2, 1), grid.I(6, 5, 4))
		fld, err := ReadVarExtent(vf, h, v, ext)
		if err != nil {
			t.Fatal(err)
		}
		for z := ext.Lo.Z; z < ext.Hi.Z; z++ {
			for y := ext.Lo.Y; y < ext.Hi.Y; y++ {
				for x := ext.Lo.X; x < ext.Hi.X; x++ {
					want := sn.Eval(volume.VarVelocityX, dims, x, y, z)
					if got := fld.At(x, y, z); got != want {
						t.Fatalf("%v: (%d,%d,%d) = %v, want %v", ver, x, y, z, got, want)
					}
				}
			}
		}
		vf.Close()
	}
}

func TestWriteReadRoundTripFixed(t *testing.T) {
	dims := grid.I(6, 4, 3)
	path := filepath.Join(t.TempDir(), "t.nc")
	_, sn := writeSupernovaFile(t, path, V5, dims, []string{"pressure", "density"}, false)
	vf, err := vfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer vf.Close()
	h, err := ReadHeader(vf)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := h.VarByName("density")
	fld, err := ReadVarExtent(vf, h, v, grid.WholeGrid(dims))
	if err != nil {
		t.Fatal(err)
	}
	want := sn.GenerateFull(volume.VarDensity, dims)
	for i := range want.Data {
		if fld.Data[i] != want.Data[i] {
			t.Fatalf("element %d: %v vs %v", i, fld.Data[i], want.Data[i])
		}
	}
}

func TestVarRunsRecordStride(t *testing.T) {
	dims := grid.I(8, 8, 6)
	names := []string{"a", "b", "c", "d", "e"}
	f := mustVolumeFile(t, V2, dims, names, true)
	v, _ := f.VarByName("b")
	// Full X-Y extent, 2 planes: one run per record, recSize apart.
	runs, err := f.VarRuns(v, grid.Ext(grid.I(0, 0, 2), grid.I(8, 8, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("runs = %v", runs)
	}
	if runs[1].Offset-runs[0].Offset != f.RecSize() {
		t.Errorf("record stride = %d, want %d", runs[1].Offset-runs[0].Offset, f.RecSize())
	}
	if runs[0].Offset != v.Begin+2*f.RecSize() {
		t.Errorf("first run at %d", runs[0].Offset)
	}
	if runs[0].Length != 8*8*4 {
		t.Errorf("run length = %d", runs[0].Length)
	}
}

func TestVarRunsDensityOneOfFive(t *testing.T) {
	// Reading one variable of five touches exactly 1/5 of the record
	// region's bytes — the Fig 8/9 situation.
	dims := grid.Cube(8)
	f := mustVolumeFile(t, V2, dims, []string{"a", "b", "c", "d", "e"}, true)
	v, _ := f.VarByName("c")
	runs, err := f.VarRuns(v, grid.WholeGrid(dims))
	if err != nil {
		t.Fatal(err)
	}
	useful := grid.TotalBytes(runs)
	span := runs[len(runs)-1].End() - runs[0].Offset
	if useful*5 != span+4*int64(8*8*4) {
		// span covers from var c's first byte to its last: 5 records per
		// stride minus the leading/trailing other-variable records.
		t.Logf("useful=%d span=%d", useful, span)
	}
	if useful != dims.Count()*4 {
		t.Errorf("useful bytes = %d, want %d", useful, dims.Count()*4)
	}
	frac := float64(useful) / float64(FileSize(f))
	if frac > 0.21 || frac < 0.19 {
		t.Errorf("variable occupies %.3f of file, want ~0.2", frac)
	}
}

func TestVarRunsLoneRecordVarCoalesces(t *testing.T) {
	// With a single record variable the records are contiguous, so a
	// full-extent read collapses to one run.
	dims := grid.I(4, 4, 5)
	f := mustVolumeFile(t, V2, dims, []string{"only"}, true)
	v := &f.Vars[0]
	runs, err := f.VarRuns(v, grid.WholeGrid(dims))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Length != dims.Count()*4 {
		t.Errorf("runs = %v", runs)
	}
}

// A record variable's runs are built in one pass into one slice; the
// list is the one the per-plane grid.Runs + CoalesceRuns construction
// gave, for sub-row, full-row and full-plane extents, five variables and
// one.
func TestVarRunsRecordOnePass(t *testing.T) {
	dims := grid.I(7, 5, 6)
	for _, names := range [][]string{{"a", "b", "c", "d", "e"}, {"only"}} {
		f := mustVolumeFile(t, V2, dims, names, true)
		v := &f.Vars[len(names)/2]
		for _, ext := range []grid.Extent{
			grid.WholeGrid(dims),
			grid.Ext(grid.I(1, 1, 1), grid.I(6, 4, 5)),
			grid.Ext(grid.I(0, 2, 0), grid.I(7, 4, 6)),
			grid.Ext(grid.I(0, 0, 3), grid.I(7, 5, 4)),
		} {
			var want []grid.Run
			plane := grid.I(dims.X, dims.Y, 1)
			planeExt := grid.Ext(grid.I(ext.Lo.X, ext.Lo.Y, 0), grid.I(ext.Hi.X, ext.Hi.Y, 1))
			for z := ext.Lo.Z; z < ext.Hi.Z; z++ {
				want = append(want, grid.Runs(plane, planeExt, 4, v.Begin+int64(z)*f.RecSize())...)
			}
			want = grid.CoalesceRuns(want)
			got, err := f.VarRuns(v, ext)
			if err != nil || !slices.Equal(got, want) {
				t.Errorf("%d variables, %v: runs %v (%v), want %v", len(names), ext, got, err, want)
			}
			if n := testing.AllocsPerRun(10, func() { f.VarRuns(v, ext) }); n != 1 {
				t.Errorf("%d variables, %v: %v allocations, want 1", len(names), ext, n)
			}
			// Appended to a list with room for a run per row, the same
			// runs follow what the list held and allocate nothing.
			head := grid.Run{Offset: -1, Length: 1}
			dst := make([]grid.Run, 1, 1+ext.Size().Y*ext.Size().Z)
			dst[0] = head
			if got, err := f.AppendVarRuns(dst, v, ext); err != nil || got[0] != head || !slices.Equal(got[1:], want) {
				t.Errorf("%d variables, %v: appended runs %v (%v), want %v after %v", len(names), ext, got, err, want, head)
			}
			if n := testing.AllocsPerRun(10, func() { f.AppendVarRuns(dst, v, ext) }); n != 0 {
				t.Errorf("%d variables, %v: appending allocates %v times, want 0", len(names), ext, n)
			}
		}
	}
}

func TestVarRunsEmptyAndClipped(t *testing.T) {
	dims := grid.Cube(4)
	f := mustVolumeFile(t, V2, dims, []string{"a"}, true)
	v := &f.Vars[0]
	runs, err := f.VarRuns(v, grid.Ext(grid.I(9, 9, 9), grid.I(12, 12, 12)))
	if err != nil || runs != nil {
		t.Errorf("out-of-grid extent: %v, %v", runs, err)
	}
}

func TestGridDimsErrors(t *testing.T) {
	f := &File{
		Version: V1,
		Dims:    []Dim{{Name: "x", Len: 3}},
		Vars:    []Var{{Name: "v", Type: Float, DimIDs: []int32{0}}},
	}
	if _, err := f.GridDims(&f.Vars[0]); err == nil {
		t.Error("rank-1 variable accepted as 3D")
	}
}

func TestReadHeaderFromMemFile(t *testing.T) {
	f := mustVolumeFile(t, V5, grid.Cube(4), []string{"a"}, true)
	m := &vfile.MemFile{Data: EncodeHeader(f)}
	h, err := ReadHeader(m)
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != V5 || len(h.Vars) != 1 {
		t.Errorf("parsed %+v", h)
	}
}

func TestCDL(t *testing.T) {
	f := mustVolumeFile(t, V2, grid.I(6, 5, 4), []string{"pressure", "density"}, true)
	s := f.CDL("step")
	for _, want := range []string{
		"netcdf step {", "z = UNLIMITED ; // (4 currently)", "y = 5 ;", "x = 6 ;",
		"float pressure(z, y, x) ;", `pressure:units = "normalized" ;`,
		`:source = `, "}",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("CDL missing %q:\n%s", want, s)
		}
	}
	// Numeric attribute rendering.
	g := &File{Version: V1,
		GAtts: []Att{
			{Name: "levels", Type: Int, Values: []float64{1, 2}},
			{Name: "scale", Type: Float, Values: []float64{0.5}},
		}}
	s = g.CDL("x")
	if !strings.Contains(s, "levels = 1, 2 ;") || !strings.Contains(s, "scale = 0.5f ;") {
		t.Errorf("numeric CDL wrong:\n%s", s)
	}
}
