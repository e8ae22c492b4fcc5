package core

import (
	"fmt"

	"bgpvr/internal/comm"
	"bgpvr/internal/grid"
	"bgpvr/internal/h5lite"
	"bgpvr/internal/mpiio"
	"bgpvr/internal/netcdf"
	"bgpvr/internal/rawfmt"
	"bgpvr/internal/scratch"
	"bgpvr/internal/vfile"
	"bgpvr/internal/volume"
)

// Format selects how a time step is stored on disk — the five I/O modes
// of Fig 10 plus in-memory generation (the in-situ case).
type Format int

// The storage formats studied in §V.
const (
	// FormatGenerate synthesizes the data in memory (no I/O stage).
	FormatGenerate Format = iota
	// FormatRaw is a bare float32 array of one variable.
	FormatRaw
	// FormatNetCDF is the VH-1 layout: five record variables in a
	// classic (CDF-2) file, records interleaved per Fig 8.
	FormatNetCDF
	// FormatCDF5 stores five fixed (nonrecord) variables in a CDF-5
	// 64-bit-data file — the paper's "new netCDF" with contiguous
	// variables.
	FormatCDF5
	// FormatH5 is the HDF5-like container: contiguous datasets plus
	// small scattered metadata.
	FormatH5
)

func (f Format) String() string {
	switch f {
	case FormatGenerate:
		return "generate"
	case FormatRaw:
		return "raw"
	case FormatNetCDF:
		return "netcdf-record"
	case FormatCDF5:
		return "netcdf-cdf5"
	case FormatH5:
		return "h5lite"
	default:
		return fmt.Sprintf("format(%d)", int(f))
	}
}

// varNames returns the five VH-1 variable names.
func varNames() []string {
	names := make([]string, volume.NumVars)
	for v := volume.Var(0); v < volume.NumVars; v++ {
		names[v] = v.Name()
	}
	return names
}

// WriteSceneFile materializes the scene's time step at path in the given
// format (raw stores only the scene variable; the multivariate formats
// store all five variables, as VH-1 does). The data is generated a
// z-plane at a time, so a file larger than memory can be written.
func WriteSceneFile(path string, f Format, s Scene) error {
	sn := s.Supernova()
	dims := s.Dims
	plane := func(v volume.Var, z int) *volume.Field {
		return sn.Generate(v, dims, grid.Ext(grid.I(0, 0, z), grid.I(dims.X, dims.Y, z+1)))
	}
	// The point-at-a-time writers ask in file order: serve them from the
	// plane they are in.
	var cur *volume.Field
	var curVar volume.Var
	at := func(v volume.Var, x, y, z int) float32 {
		if cur == nil || v != curVar || z != cur.Ext.Lo.Z {
			cur, curVar = plane(v, z), v
		}
		return cur.Data[y*dims.X+x]
	}
	switch f {
	case FormatRaw:
		return rawfmt.WriteFunc(path, dims, func(x, y, z int) float32 { return at(s.Variable, x, y, z) })
	case FormatNetCDF, FormatCDF5:
		ver, record := netcdf.V2, true
		if f == FormatCDF5 {
			ver, record = netcdf.V5, false
		}
		nf, err := netcdf.NewVolumeFile(ver, dims, varNames(), record)
		if err != nil {
			return err
		}
		return netcdf.WriteFile(path, nf, func(varIdx int, rec int64) []float32 {
			if rec < 0 {
				return sn.GenerateFull(volume.Var(varIdx), dims).Data
			}
			return plane(volume.Var(varIdx), int(rec)).Data
		})
	case FormatH5:
		return h5lite.Write(path, dims, varNames(), func(v, x, y, z int) float32 { return at(volume.Var(v), x, y, z) })
	default:
		return fmt.Errorf("core: cannot write format %v", f)
	}
}

// layout describes where the scene variable's bytes live in a file of
// the given format, independent of whether the file exists: extent-to-
// runs mapping plus the per-process metadata read count. It is shared by
// the real reader and the model planner.
type layout struct {
	// runsFor appends the runs of ext to dst and returns the list.
	runsFor      func(dst []grid.Run, ext grid.Extent) ([]grid.Run, error)
	order        volume.ByteOrder
	metaAccesses int // small per-process metadata reads on open
}

// runLists recycles the run lists of a frame's reads: each block's, and
// the whole variable's that frameHints plans the window from.
var runLists = scratch.Pool[grid.Run]{Poison: grid.Run{Offset: -1, Length: -1}}

// takeRuns returns the runs of ext in a list taken from runLists. It
// holds rows × planes of ext, a run per row at most, so no format's
// builder grows it. Its user releases it with runLists.Put.
func (lay *layout) takeRuns(ext grid.Extent) ([]grid.Run, error) {
	s := ext.Size()
	return lay.runsFor(runLists.Get(s.Y * s.Z)[:0], ext)
}

// readInto overwrites every sample of fld with the layout's variable
// over fld's extent, read from f collectively: the samples are decoded
// straight out of the aggregators' replies. All ranks must call it
// together.
func (lay *layout) readInto(c *comm.Comm, f vfile.File, fld *volume.Field, h mpiio.Hints) error {
	runs, err := lay.takeRuns(fld.Ext)
	if err != nil {
		return err
	}
	// The read keeps no reference to the runs once it returns.
	defer runLists.Put(runs)
	return readFloats(c, f, runs, h, fld.Data, lay.order)
}

// readFloats fills dst with the samples stored at runs, read
// collectively.
func readFloats(c *comm.Comm, f vfile.File, runs []grid.Run, h mpiio.Hints, dst []float32, order volume.ByteOrder) error {
	dec := volume.NewFloatDecoder(dst, order)
	if err := mpiio.CollectiveReadTo(c, f, runs, h, dec); err != nil {
		return err
	}
	return dec.Close()
}

// frameHints resolves the hints a frame left zero, once and before its
// world starts, so that every rank reads under the same hints without a
// collective: CBNodes to the mode's aggregator count, CBBufferSize to
// the window mpiio.ChooseWindow plans for union (the whole variable's
// runs) under those aggregators. Hints given explicitly are kept as
// they are. Below core a zero window keeps meaning mpiio's default.
func frameHints(h mpiio.Hints, aggregators int, union []grid.Run) mpiio.Hints {
	if h.CBNodes <= 0 {
		h.CBNodes = aggregators
	}
	if h.CBBufferSize <= 0 {
		h.CBBufferSize = mpiio.ChooseWindow(union, h.CBNodes)
	}
	return h
}

// formatLayout builds the layout analytically (no file access) for model
// mode and for planning.
func formatLayout(f Format, s Scene) (*layout, error) {
	dims := s.Dims
	switch f {
	case FormatRaw:
		return &layout{
			runsFor: func(dst []grid.Run, ext grid.Extent) ([]grid.Run, error) {
				return rawfmt.AppendVarRuns(dst, dims, ext), nil
			},
		}, nil
	case FormatNetCDF, FormatCDF5:
		ver, record := netcdf.V2, true
		if f == FormatCDF5 {
			ver, record = netcdf.V5, false
		}
		nf, err := netcdf.NewVolumeFile(ver, dims, varNames(), record)
		if err != nil {
			return nil, err
		}
		v, _ := nf.VarByName(s.Variable.Name())
		return &layout{
			runsFor:      func(dst []grid.Run, ext grid.Extent) ([]grid.Run, error) { return nf.AppendVarRuns(dst, v, ext) },
			order:        volume.BigEndian,
			metaAccesses: 1, // header read
		}, nil
	case FormatH5:
		lf, err := h5lite.Layout(dims, varNames())
		if err != nil {
			return nil, err
		}
		ds, ok := lf.DatasetByName(s.Variable.Name())
		if !ok {
			return nil, fmt.Errorf("core: h5lite layout missing %q", s.Variable.Name())
		}
		return &layout{
			runsFor:      func(dst []grid.Run, ext grid.Extent) ([]grid.Run, error) { return ds.AppendVarRuns(dst, ext), nil },
			metaAccesses: 2 + 2*volume.NumVars, // superblock, symtab, header+attrs per dataset
		}, nil
	default:
		return nil, fmt.Errorf("core: format %v has no file layout", f)
	}
}

// UnionRuns returns the byte runs of a whole-variable collective read in
// the given format — the union request the two-phase planner sees when
// every block's extent is read together.
func UnionRuns(f Format, s Scene) ([]grid.Run, error) {
	lay, err := formatLayout(f, s)
	if err != nil {
		return nil, err
	}
	return lay.runsFor(nil, grid.WholeGrid(s.Dims))
}

// FileSizeOf returns the on-disk size of a scene file in the format.
func FileSizeOf(f Format, s Scene) (int64, error) {
	switch f {
	case FormatRaw:
		return rawfmt.FileSize(s.Dims), nil
	case FormatNetCDF, FormatCDF5:
		ver, record := netcdf.V2, true
		if f == FormatCDF5 {
			ver, record = netcdf.V5, false
		}
		nf, err := netcdf.NewVolumeFile(ver, s.Dims, varNames(), record)
		if err != nil {
			return 0, err
		}
		return netcdf.FileSize(nf), nil
	case FormatH5:
		lf, err := h5lite.Layout(s.Dims, varNames())
		if err != nil {
			return 0, err
		}
		last := lf.Datasets[len(lf.Datasets)-1]
		return last.Offset + last.Size, nil
	default:
		return 0, fmt.Errorf("core: format %v has no file size", f)
	}
}

// openTraced opens a scene file with access tracing.
func openTraced(path string) (*vfile.Traced, func() error, error) {
	f, err := vfile.Open(path)
	if err != nil {
		return nil, nil, err
	}
	return vfile.NewTraced(f), f.Close, nil
}
