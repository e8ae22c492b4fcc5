package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"bgpvr/internal/clitest"
)

// TestRun runs the quickstart and checks the line it exists to show:
// the parallel frame matches the serial reference renderer.
func TestRun(t *testing.T) {
	clitest.InTempDir(t)
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\nparallel == serial ✓\n") {
		t.Errorf("output lacks the cross-check line:\n%s", out.String())
	}
	if st, err := os.Stat("quickstart.ppm"); err != nil || st.Size() == 0 {
		t.Errorf("quickstart.ppm not written: %v", err)
	}
}
