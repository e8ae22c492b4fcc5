package main

import (
	"bytes"
	"os"
	"regexp"
	"strconv"
	"testing"

	"bgpvr/internal/clitest"
)

// TestRun runs the supernova example end to end and checks what it
// exists to show: with the record-sized collective buffer, reading one
// of five interleaved variables fetches about the bytes it needs, and
// the frame becomes an image.
func TestRun(t *testing.T) {
	clitest.InTempDir(t)
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`useful \(density ([0-9.]+)\)\n`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("output lacks the I/O line:\n%s", out.String())
	}
	if d, _ := strconv.ParseFloat(m[1], 64); d < 0.9 {
		t.Errorf("tuned read density %v, want about 1:\n%s", d, out.String())
	}
	if st, err := os.Stat("supernova.ppm"); err != nil || st.Size() == 0 {
		t.Errorf("supernova.ppm not written: %v", err)
	}
}
