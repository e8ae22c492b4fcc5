package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"slices"
	"testing"

	"bgpvr/internal/clitest"
)

// TestRun pins the flag surface, the argument errors and one small
// image from outside the renderer: the defaults cast a perspective,
// shaded, early-terminating ray at step 0.5, so
// the transcript's sample count and the PPM's SHA-256 hold the kernel
// to the same bits as render's golden scenes do, through the binary a
// user runs.
func TestRun(t *testing.T) {
	// hashed appends the SHA-256 of the image a row wrote (and removes
	// it, so a later row that fails cannot show an earlier row's).
	hashed := func(args []string, stdout, stderr io.Writer) int {
		code := run(args, stdout, stderr)
		if i := slices.Index(args, "-o"); i >= 0 && i+1 < len(args) {
			if data, err := os.ReadFile(args[i+1]); err == nil {
				fmt.Fprintf(stdout, "sha256 %x\n", sha256.Sum256(data))
				os.Remove(args[i+1])
			}
		}
		return code
	}
	clitest.Run(t, hashed, "testdata/run.golden", []string{
		"-h",
		"-n 24 -img 48 -o $TMP/out.ppm",
		"-n 24 -img 48 -persp=false -shaded=false -var density -o $TMP/out.ppm",
		"-var nosuch",
		"-n 8 -img 8 -o $TMP/nosuch/out.ppm",
		"-nosuch",
	})
}
