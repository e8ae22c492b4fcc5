package netcdf

import (
	"fmt"
	"sort"

	"bgpvr/internal/comm"
	"bgpvr/internal/grid"
	"bgpvr/internal/mpiio"
	"bgpvr/internal/vfile"
	"bgpvr/internal/volume"
)

// The parallel write path mirrors what Parallel netCDF does for VH-1:
// every rank contributes its block of every variable, and the library
// turns the subarrays into collective file writes. Combined with
// ComputeLayout this is the write side of the paper's I/O story — the
// same record interleaving that later makes single-variable reads
// expensive is produced here by construction.

// EncodeFloats encodes float32s big-endian (the format's byte order).
func EncodeFloats(v []float32) []byte {
	b := make([]byte, volume.WireFloatBytes*len(v))
	volume.PutFloats(b, v, volume.BigEndian)
	return b
}

// ParallelWriteVolume writes one time step collectively: every rank
// passes its fields (one per file variable, covering exactly its block
// extent of the decomposition), and the file — header plus all variable
// data — lands via two-phase collective writes. Rank 0 writes the
// header. All ranks must call it together with consistent arguments.
func ParallelWriteVolume(c *comm.Comm, f *File, out vfile.RWFile, d grid.Decomp, fields []*volume.Field, h mpiio.Hints) error {
	nvars := 0
	for i := range f.Vars {
		if f.Vars[i].Type != Float {
			return fmt.Errorf("netcdf: parallel write supports float variables, %q is %v", f.Vars[i].Name, f.Vars[i].Type)
		}
		nvars++
	}
	if len(fields) != nvars {
		return fmt.Errorf("netcdf: %d fields for %d variables", len(fields), nvars)
	}
	ext := d.BlockExtent(c.Rank())

	var runs []grid.Run
	var data []byte
	if c.Rank() == 0 {
		hdr := EncodeHeader(f)
		runs = append(runs, grid.Run{Offset: 0, Length: int64(len(hdr))})
		data = append(data, hdr...)
	}
	for i := range f.Vars {
		fld := fields[i]
		if fld.Ext != ext {
			return fmt.Errorf("netcdf: rank %d field %d covers %v, want block %v", c.Rank(), i, fld.Ext, ext)
		}
		vruns, err := f.VarRuns(&f.Vars[i], ext)
		if err != nil {
			return err
		}
		runs = append(runs, vruns...)
		data = append(data, EncodeFloats(fld.Data)...)
	}
	// Runs must be offset-sorted for the collective write; rank 0's
	// header run is first and variable runs ascend per variable, but
	// variables interleave in record files, so sort fragments by
	// rebuilding (runs are disjoint across ranks and variables).
	runs, data = sortRunsWithData(runs, data)
	return mpiio.CollectiveWrite(c, out, runs, data, h)
}

// sortRunsWithData orders runs (and their payload bytes) by offset.
func sortRunsWithData(runs []grid.Run, data []byte) ([]grid.Run, []byte) {
	type item struct {
		run  grid.Run
		data []byte
	}
	items := make([]item, len(runs))
	var off int64
	for i, r := range runs {
		items[i] = item{run: r, data: data[off : off+r.Length]}
		off += r.Length
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].run.Offset < items[j].run.Offset })
	outRuns := make([]grid.Run, len(items))
	outData := make([]byte, 0, len(data))
	for i, it := range items {
		outRuns[i] = it.run
		outData = append(outData, it.data...)
	}
	return outRuns, outData
}
