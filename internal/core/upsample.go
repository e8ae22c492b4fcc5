package core

import (
	"fmt"
	"os"

	"bgpvr/internal/comm"
	"bgpvr/internal/grid"
	"bgpvr/internal/mpiio"
	"bgpvr/internal/rawfmt"
	"bgpvr/internal/vfile"
	"bgpvr/internal/volume"
)

// UpsampleConfig drives the parallel upsampling preprocessor of §IV-B:
// read a raw source volume collectively, trilinearly upsample each
// block, and write the raw target volume collectively.
type UpsampleConfig struct {
	SrcDims grid.IVec3
	Factor  int
	Procs   int
	SrcPath string
	DstPath string
}

// RunUpsample executes the preprocessor and returns the target
// dimensions.
func RunUpsample(cfg UpsampleConfig) (grid.IVec3, error) {
	if cfg.Factor < 1 {
		return grid.IVec3{}, fmt.Errorf("core: upsample factor %d < 1", cfg.Factor)
	}
	if cfg.Procs < 1 {
		return grid.IVec3{}, fmt.Errorf("core: Procs must be >= 1")
	}
	dstDims := grid.IVec3{X: cfg.SrcDims.X * cfg.Factor, Y: cfg.SrcDims.Y * cfg.Factor, Z: cfg.SrcDims.Z * cfg.Factor}
	// Creating the output truncates it, so an output that is the input
	// (by any path or link) would destroy the source before it is read.
	if si, err := os.Stat(cfg.SrcPath); err == nil {
		if di, err := os.Stat(cfg.DstPath); err == nil && os.SameFile(si, di) {
			return grid.IVec3{}, fmt.Errorf("core: upsample output %s is the input %s", cfg.DstPath, cfg.SrcPath)
		}
	}

	src, err := vfile.Open(cfg.SrcPath)
	if err != nil {
		return grid.IVec3{}, err
	}
	defer src.Close()
	if src.Size() != rawfmt.FileSize(cfg.SrcDims) {
		return grid.IVec3{}, fmt.Errorf("core: source is %d bytes, want %d for %v",
			src.Size(), rawfmt.FileSize(cfg.SrcDims), cfg.SrcDims)
	}
	dst, err := vfile.Create(cfg.DstPath)
	if err != nil {
		return grid.IVec3{}, err
	}
	defer dst.Close()
	if err := dst.Truncate(rawfmt.FileSize(dstDims)); err != nil {
		return grid.IVec3{}, err
	}

	hints := mpiio.Hints{CBNodes: min(cfg.Procs, 8)}
	d := grid.NewDecomp(dstDims, cfg.Procs)
	world := comm.NewWorld(cfg.Procs)
	err = world.Run(func(c *comm.Comm) error {
		dstExt := d.BlockExtent(c.Rank())
		srcExt := volume.UpsampleSourceExtent(cfg.SrcDims, dstDims, dstExt)

		// Collective read of the bracketing source region.
		in := volume.NewField(cfg.SrcDims, srcExt)
		err := readFloats(c, src, rawfmt.VarRuns(cfg.SrcDims, srcExt), hints, in.Data, volume.LittleEndian)
		if err != nil {
			return err
		}

		// Local trilinear upsampling of the block.
		out := volume.UpsampleExtent(in, dstDims, dstExt)

		// Collective write of the target block.
		enc := make([]byte, volume.WireFloatBytes*len(out.Data))
		volume.PutFloats(enc, out.Data, volume.LittleEndian)
		return mpiio.CollectiveWrite(c, dst, rawfmt.VarRuns(dstDims, dstExt), enc, hints)
	})
	if err != nil {
		return grid.IVec3{}, err
	}
	return dstDims, dst.Close()
}
