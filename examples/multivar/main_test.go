package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"bgpvr/internal/clitest"
)

// TestRun runs the multivariate example: two record variables read
// collectively from one netCDF file and rendered together into one
// image.
func TestRun(t *testing.T) {
	clitest.InTempDir(t)
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote multivar.ppm (velocity colored, density-modulated, ") {
		t.Errorf("output lacks the image line:\n%s", out.String())
	}
	if st, err := os.Stat("multivar.ppm"); err != nil || st.Size() == 0 {
		t.Errorf("multivar.ppm not written: %v", err)
	}
}
