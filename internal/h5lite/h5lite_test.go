package h5lite

import (
	"path/filepath"
	"testing"

	"bgpvr/internal/grid"
	"bgpvr/internal/vfile"
	"bgpvr/internal/volume"
)

var varNames = []string{"pressure", "density", "velocity_x", "velocity_y", "velocity_z"}

func writeTestFile(t *testing.T, dims grid.IVec3, names []string) (string, volume.Supernova) {
	t.Helper()
	sn := volume.Supernova{Seed: 31, Time: 0.4}
	path := filepath.Join(t.TempDir(), "t.h5l")
	err := Write(path, dims, names, func(v, x, y, z int) float32 {
		return sn.Eval(volume.Var(v), dims, x, y, z)
	})
	if err != nil {
		t.Fatal(err)
	}
	return path, sn
}

func TestWriteOpenRoundTrip(t *testing.T) {
	dims := grid.I(6, 5, 4)
	path, _ := writeTestFile(t, dims, varNames)
	f, err := vfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, err := Open(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Datasets) != 5 {
		t.Fatalf("datasets = %d", len(h.Datasets))
	}
	for i, d := range h.Datasets {
		if d.Name != varNames[i] || d.Dims != dims || d.Size != dims.Count()*4 {
			t.Errorf("dataset %d = %+v", i, d)
		}
		if d.Attrs["units"] != "normalized" {
			t.Errorf("dataset %d attrs = %v", i, d.Attrs)
		}
	}
	// Data regions are contiguous and consecutive.
	for i := 1; i < 5; i++ {
		if h.Datasets[i].Offset != h.Datasets[i-1].Offset+h.Datasets[i-1].Size {
			t.Errorf("dataset %d not adjacent to %d", i, i-1)
		}
	}
	if h.Datasets[0].Offset%8 != 0 {
		t.Error("data start not 8-byte aligned")
	}
}

func TestOpenMetadataAccessesSmallAndFew(t *testing.T) {
	dims := grid.Cube(4)
	path, _ := writeTestFile(t, dims, varNames)
	f, err := vfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr := vfile.NewTraced(f)
	h, err := Open(tr)
	if err != nil {
		t.Fatal(err)
	}
	acc := tr.Log.Accesses()
	// 1 superblock + 1 symtab + per dataset (header + attrs) = 12, in
	// the spirit of the paper's "11 very small metadata accesses".
	if len(acc) != h.MetaAccesses || len(acc) != 12 {
		t.Errorf("metadata accesses = %d (MetaAccesses=%d)", len(acc), h.MetaAccesses)
	}
	for _, a := range acc {
		if a.Length > 600 {
			t.Errorf("metadata access of %d bytes exceeds 600", a.Length)
		}
	}
	// All metadata reads land before the data region.
	for _, a := range acc {
		if a.Offset >= h.Datasets[0].Offset {
			t.Errorf("metadata access at %d inside data region", a.Offset)
		}
	}
}

func TestReadExtentMatchesGenerator(t *testing.T) {
	dims := grid.I(7, 5, 6)
	path, sn := writeTestFile(t, dims, varNames)
	f, err := vfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, err := Open(f)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := h.DatasetByName("velocity_y")
	if !ok {
		t.Fatal("velocity_y missing")
	}
	ext := grid.Ext(grid.I(2, 1, 1), grid.I(6, 4, 5))
	fld, err := ReadExtent(f, d, ext)
	if err != nil {
		t.Fatal(err)
	}
	for z := ext.Lo.Z; z < ext.Hi.Z; z++ {
		for y := ext.Lo.Y; y < ext.Hi.Y; y++ {
			for x := ext.Lo.X; x < ext.Hi.X; x++ {
				want := sn.Eval(volume.VarVelocityY, dims, x, y, z)
				if got := fld.At(x, y, z); got != want {
					t.Fatalf("(%d,%d,%d) = %v, want %v", x, y, z, got, want)
				}
			}
		}
	}
}

func TestVarRunsDense(t *testing.T) {
	dims := grid.Cube(8)
	path, _ := writeTestFile(t, dims, varNames)
	f, err := vfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, err := Open(f)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := h.DatasetByName("density")
	runs := d.AppendVarRuns(nil, grid.WholeGrid(dims))
	if len(runs) != 1 {
		t.Errorf("whole-variable read should be one run, got %d", len(runs))
	}
	// Unlike the netCDF record layout, the span equals the useful bytes.
	if grid.TotalBytes(runs) != dims.Count()*4 {
		t.Errorf("bytes = %d", grid.TotalBytes(runs))
	}
}

func TestOpenBadMagic(t *testing.T) {
	m := &vfile.MemFile{Data: make([]byte, 128)}
	if _, err := Open(m); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestDatasetByNameMissing(t *testing.T) {
	h := &File{}
	if _, ok := h.DatasetByName("nope"); ok {
		t.Error("found nonexistent dataset")
	}
}
