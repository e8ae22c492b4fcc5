package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"bgpvr/internal/clitest"
)

// TestRun pins the Fig 9 report and the PGM images: the maps come from
// the machine model alone, so every byte is deterministic.
func TestRun(t *testing.T) {
	// hashed appends the SHA-256 of each image a row wrote, in name
	// order, and removes them so a later row cannot show them again.
	hashed := func(args []string, stdout, stderr io.Writer) int {
		code := run(args, stdout, stderr)
		if i := slices.Index(args, "-pgm-dir"); i >= 0 && i+1 < len(args) {
			paths, _ := filepath.Glob(filepath.Join(args[i+1], "*.pgm"))
			for _, path := range paths {
				if data, err := os.ReadFile(path); err == nil {
					fmt.Fprintf(stdout, "sha256 %s %x\n", filepath.Base(path), sha256.Sum256(data))
					os.Remove(path)
				}
			}
		}
		return code
	}
	clitest.Run(t, hashed, "testdata/run.golden", []string{
		"-h",
		"",
		"-pgm-dir $TMP/maps",
		"-nosuch",
	})
}
