package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"bgpvr/internal/clitest"
	"bgpvr/internal/core"
)

// TestRun pins the dump of each file format core.WriteSceneFile writes
// a header for — netCDF record, CDF-5 and h5lite, with and without
// -layout — and the errors: a missing file, a file of neither format,
// and a bad command line. h5lite attributes print in key order, so the
// transcript is the same on every run.
func TestRun(t *testing.T) {
	formats := map[string]core.Format{
		"record.nc": core.FormatNetCDF,
		"cdf5.nc":   core.FormatCDF5,
		"step.h5":   core.FormatH5,
	}
	// withFiles writes each file a row names, once, before the row runs.
	withFiles := func(args []string, stdout, stderr io.Writer) int {
		for _, arg := range args {
			if _, err := os.Stat(arg); err == nil {
				continue
			}
			var err error
			switch name := filepath.Base(arg); {
			case name == "junk.dat":
				err = os.WriteFile(arg, []byte("neither netCDF nor h5lite\n"), 0o644)
			case formats[name] != 0:
				err = core.WriteSceneFile(arg, formats[name], core.DefaultScene(8, 8))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return run(args, stdout, stderr)
	}
	clitest.Run(t, withFiles, "testdata/run.golden", []string{
		"-h",
		"$TMP/record.nc",
		"-layout $TMP/record.nc",
		"$TMP/cdf5.nc",
		"-layout $TMP/cdf5.nc",
		"$TMP/step.h5",
		"-layout $TMP/step.h5",
		"$TMP/nosuch.nc",
		"$TMP/junk.dat",
		"",
		"-nosuch",
	})
}
