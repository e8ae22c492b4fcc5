package core

import (
	"os"
	"testing"

	"bgpvr/internal/comm"
	"bgpvr/internal/grid"
	"bgpvr/internal/mpiio"
	"bgpvr/internal/scratch"
	"bgpvr/internal/vfile"
	"bgpvr/internal/volume"
)

// The package's tests run with the recycler poisoning what is released
// (NaN samples and pixels, 0xFF bytes), so a frame that reads a buffer
// after its release, relies on a taken one being zero, or releases what
// a cache or the caller still holds fails its pixel or field comparison.
func TestMain(m *testing.M) {
	scratch.Poison(true)
	os.Exit(m.Run())
}

// readField is readInto on a field of its own.
func (lay *layout) readField(c *comm.Comm, f vfile.File, dims grid.IVec3, ext grid.Extent, h mpiio.Hints) (*volume.Field, error) {
	fld := volume.NewField(dims, ext)
	if err := lay.readInto(c, f, fld, h); err != nil {
		return nil, err
	}
	return fld, nil
}
