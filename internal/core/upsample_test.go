package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bgpvr/internal/grid"
	"bgpvr/internal/rawfmt"
	"bgpvr/internal/vfile"
	"bgpvr/internal/volume"
)

// The parallel upsampler must reproduce grid.Upsample exactly.
func TestRunUpsampleMatchesSerial(t *testing.T) {
	srcDims := grid.I(10, 8, 6)
	sn := volume.Supernova{Seed: 9, Time: 0.5}
	src := sn.GenerateFull(volume.VarDensity, srcDims)

	dir := t.TempDir()
	srcPath := filepath.Join(dir, "src.raw")
	if err := rawfmt.Write(srcPath, src); err != nil {
		t.Fatal(err)
	}

	for _, factor := range []int{1, 2, 3} {
		for _, p := range []int{1, 4, 6} {
			dstPath := filepath.Join(dir, "dst.raw")
			dims, err := RunUpsample(UpsampleConfig{
				SrcDims: srcDims, Factor: factor, Procs: p,
				SrcPath: srcPath, DstPath: dstPath,
			})
			if err != nil {
				t.Fatalf("factor=%d p=%d: %v", factor, p, err)
			}
			wantData, wantDims := grid.Upsample(src.Data, srcDims, factor)
			if dims != wantDims {
				t.Fatalf("dims = %v, want %v", dims, wantDims)
			}
			f, err := vfile.Open(dstPath)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rawfmt.ReadExtent(f, dims, grid.WholeGrid(dims))
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantData {
				if got.Data[i] != wantData[i] {
					t.Fatalf("factor=%d p=%d: element %d = %v, want %v",
						factor, p, i, got.Data[i], wantData[i])
				}
			}
		}
	}
}

func TestUpsampleExtentMatchesWhole(t *testing.T) {
	srcDims := grid.Cube(7)
	sn := volume.Supernova{Seed: 3, Time: 0.1}
	src := sn.GenerateFull(volume.VarPressure, srcDims)
	wantData, dstDims := grid.Upsample(src.Data, srcDims, 2)

	// Compute a sub-extent with only the bracketing source region.
	dstExt := grid.Ext(grid.I(3, 5, 0), grid.I(11, 14, 9))
	srcExt := volume.UpsampleSourceExtent(srcDims, dstDims, dstExt)
	sub := volume.NewField(srcDims, srcExt)
	sub.SubfieldFrom(src)
	got := volume.UpsampleExtent(sub, dstDims, dstExt)
	for z := dstExt.Lo.Z; z < dstExt.Hi.Z; z++ {
		for y := dstExt.Lo.Y; y < dstExt.Hi.Y; y++ {
			for x := dstExt.Lo.X; x < dstExt.Hi.X; x++ {
				want := wantData[grid.LinearIndex(dstDims, grid.I(x, y, z))]
				if got.At(x, y, z) != want {
					t.Fatalf("(%d,%d,%d) = %v, want %v", x, y, z, got.At(x, y, z), want)
				}
			}
		}
	}
}

func TestRunUpsampleErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := RunUpsample(UpsampleConfig{SrcDims: grid.Cube(4), Factor: 0, Procs: 1,
		SrcPath: "x", DstPath: "y"}); err == nil {
		t.Error("factor 0 accepted")
	}
	if _, err := RunUpsample(UpsampleConfig{SrcDims: grid.Cube(4), Factor: 2, Procs: 1,
		SrcPath: filepath.Join(dir, "missing"), DstPath: filepath.Join(dir, "out")}); err == nil {
		t.Error("missing source accepted")
	}
	// Wrong source size.
	srcPath := filepath.Join(dir, "short.raw")
	if err := rawfmt.Write(srcPath, volume.NewField(grid.Cube(3), grid.WholeGrid(grid.Cube(3)))); err != nil {
		t.Fatal(err)
	}
	if _, err := RunUpsample(UpsampleConfig{SrcDims: grid.Cube(4), Factor: 2, Procs: 1,
		SrcPath: srcPath, DstPath: filepath.Join(dir, "out")}); err == nil {
		t.Error("wrong-size source accepted")
	}
}

// An output that is the input — by the same path, a relative path, a
// symbolic or a hard link — is refused before anything is created, so
// the source survives.
func TestRunUpsampleRefusesItsInput(t *testing.T) {
	dir := t.TempDir()
	srcPath := filepath.Join(dir, "src.raw")
	dims := grid.Cube(4)
	if err := rawfmt.Write(srcPath, volume.Supernova{Seed: 1}.GenerateFull(volume.VarDensity, dims)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(srcPath)
	if err != nil {
		t.Fatal(err)
	}
	sym, hard := filepath.Join(dir, "sym.raw"), filepath.Join(dir, "hard.raw")
	if err := os.Symlink(srcPath, sym); err != nil {
		t.Fatal(err)
	}
	if err := os.Link(srcPath, hard); err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)
	for _, dst := range []string{srcPath, "src.raw", filepath.Join("..", filepath.Base(dir), "src.raw"), sym, hard} {
		_, err := RunUpsample(UpsampleConfig{SrcDims: dims, Factor: 2, Procs: 2, SrcPath: srcPath, DstPath: dst})
		if err == nil || !strings.Contains(err.Error(), "is the input") {
			t.Errorf("output %s: %v, want a refusal", dst, err)
		}
		if got, err := os.ReadFile(srcPath); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("output %s: source changed (%v)", dst, err)
		}
	}
}
