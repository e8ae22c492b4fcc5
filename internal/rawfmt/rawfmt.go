// Package rawfmt reads and writes the paper's "raw" data format: a bare
// little-endian float32 array of an entire 3D variable, X fastest, with
// no header. This is the format produced by the offline preprocessing
// step the paper describes ("extract it during an offline preprocessing
// step and save it in a single, 32-bit raw data file of 5.3 GB"), and it
// is the fastest format in every I/O comparison because a subvolume read
// maps to the densest possible access pattern.
package rawfmt

import (
	"bufio"
	"fmt"
	"os"

	"bgpvr/internal/grid"
	"bgpvr/internal/vfile"
	"bgpvr/internal/volume"
)

// ElemSize is the size of one element in bytes (32-bit float).
const ElemSize = 4

// FileSize returns the size in bytes of a raw file for a dims grid.
func FileSize(dims grid.IVec3) int64 { return dims.Count() * ElemSize }

// VarRuns returns the byte runs a read of extent ext requires. For raw
// format this is simply the subarray flattening: the variable starts at
// offset 0 and is laid out contiguously.
func VarRuns(dims grid.IVec3, ext grid.Extent) []grid.Run {
	return grid.Runs(dims, ext, ElemSize, 0)
}

// Write stores the field's extent (which must cover the whole grid) to
// path as a raw file.
func Write(path string, f *volume.Field) error {
	if f.Ext != grid.WholeGrid(f.Dims) {
		return fmt.Errorf("rawfmt: Write requires a whole-grid field, got %v", f.Ext)
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	const chunk = 1 << 18 // samples encoded per write
	enc := make([]byte, ElemSize*min(chunk, len(f.Data)))
	for vals := f.Data; len(vals) > 0; {
		n := min(chunk, len(vals))
		volume.PutFloats(enc, vals[:n], volume.LittleEndian)
		if _, err := out.Write(enc[:ElemSize*n]); err != nil {
			out.Close()
			return err
		}
		vals = vals[n:]
	}
	return out.Close()
}

// WriteFunc streams a raw file for a dims grid from a generator without
// materializing the volume (used to build test files larger than
// memory-comfortable).
func WriteFunc(path string, dims grid.IVec3, gen func(x, y, z int) float32) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(out, 1<<20)
	row := make([]float32, dims.X)
	enc := make([]byte, ElemSize*dims.X)
	for z := 0; z < dims.Z; z++ {
		for y := 0; y < dims.Y; y++ {
			for x := range row {
				row[x] = gen(x, y, z)
			}
			volume.PutFloats(enc, row, volume.LittleEndian)
			if _, err := w.Write(enc); err != nil {
				out.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// ReadExtent reads the subvolume ext from a raw file of a dims grid,
// returning a field covering ext. It issues one ReadAt per run (an
// independent, unoptimized read — the collective path goes through
// package mpiio instead).
func ReadExtent(f vfile.File, dims grid.IVec3, ext grid.Extent) (*volume.Field, error) {
	fld := volume.NewField(dims, ext)
	if err := ReadRunsInto(f, VarRuns(dims, ext), fld.Data); err != nil {
		return nil, err
	}
	return fld, nil
}

// ReadRunsInto reads the given byte runs in order, decoding float32s
// into dst sequentially. dst must hold exactly the total element count.
func ReadRunsInto(f vfile.File, runs []grid.Run, dst []float32) error {
	if n := grid.TotalBytes(runs); n != int64(len(dst))*ElemSize {
		return fmt.Errorf("rawfmt: runs cover %d bytes but dst holds %d", n, len(dst)*ElemSize)
	}
	if err := vfile.ReadRuns(f, runs, 0, volume.NewFloatDecoder(dst, volume.LittleEndian)); err != nil {
		return fmt.Errorf("rawfmt: %w", err)
	}
	return nil
}

// DecodeInto decodes a contiguous little-endian float32 byte buffer.
func DecodeInto(b []byte, dst []float32) { volume.GetFloats(dst, b, volume.LittleEndian) }
