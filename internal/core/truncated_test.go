package core

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"bgpvr/internal/comm"
	"bgpvr/internal/grid"
	"bgpvr/internal/h5lite"
	"bgpvr/internal/mpiio"
	"bgpvr/internal/netcdf"
	"bgpvr/internal/rawfmt"
	"bgpvr/internal/vfile"
	"bgpvr/internal/volume"
)

// A file cut short fails every reader with io.ErrUnexpectedEOF — on the
// world for the collective path, without a hang — instead of filling the
// field's tail from a reused scratch buffer (which is what all of them
// but rawfmt did at f29ecc6, returning a nil error).
func TestTruncatedFileFailsEveryReader(t *testing.T) {
	s := smallScene()
	whole := grid.WholeGrid(s.Dims)
	independent := map[Format]func(f vfile.File) (*volume.Field, error){
		FormatRaw: func(f vfile.File) (*volume.Field, error) {
			return rawfmt.ReadExtent(f, s.Dims, whole)
		},
		FormatNetCDF: func(f vfile.File) (*volume.Field, error) {
			hdr, err := netcdf.ReadHeader(f)
			if err != nil {
				return nil, err
			}
			v, _ := hdr.VarByName(s.Variable.Name())
			return netcdf.ReadVarExtent(f, hdr, v, whole)
		},
		FormatH5: func(f vfile.File) (*volume.Field, error) {
			lf, err := h5lite.Layout(s.Dims, varNames())
			if err != nil {
				return nil, err
			}
			ds, _ := lf.DatasetByName(s.Variable.Name())
			return h5lite.ReadExtent(f, ds, whole)
		},
	}
	for format, read := range independent {
		path := filepath.Join(t.TempDir(), "ts")
		if err := WriteSceneFile(path, format, s); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lay, err := formatLayout(format, s)
		if err != nil {
			t.Fatal(err)
		}
		runs, err := lay.runsFor(whole)
		if err != nil {
			t.Fatal(err)
		}
		// Cut inside the variable's last run, off a sample boundary.
		last := runs[len(runs)-1]
		cut := &vfile.MemFile{Data: b[:last.Offset+last.Length/2+1]}

		if _, err := read(cut); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%v independent: err = %v, want io.ErrUnexpectedEOF", format, err)
		}
		const procs = 4
		d := grid.NewDecomp(s.Dims, procs)
		err = comm.NewWorld(procs).Run(func(c *comm.Comm) error {
			_, err := lay.readField(c, cut, s.Dims, d.GhostExtent(c.Rank(), 1),
				mpiio.Hints{CBBufferSize: 1 << 10, CBNodes: 2})
			return err
		})
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%v collective: err = %v, want io.ErrUnexpectedEOF", format, err)
		}
	}
}
