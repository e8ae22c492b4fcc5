package main

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"bgpvr/internal/clitest"
)

// TestRun runs the in-situ example and checks what it exists to show:
// at paper scale the model prices a frame without the I/O stage at a
// small fraction of one with it, and every simulation step renders
// straight from memory to an image.
func TestRun(t *testing.T) {
	clitest.InTempDir(t)
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`in-situ frame .* \((\d+)x\)\n`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("output lacks the model comparison:\n%s", out.String())
	}
	if ratio, _ := strconv.Atoi(m[1]); ratio < 10 {
		t.Errorf("post-hoc frame only %dx an in-situ one:\n%s", ratio, out.String())
	}
	for step := 0; step < 5; step++ {
		name := fmt.Sprintf("insitu-step%d.ppm", step)
		if !strings.Contains(out.String(), "-> "+name+"\n") {
			t.Errorf("output lacks step %d", step)
		}
		if st, err := os.Stat(name); err != nil || st.Size() == 0 {
			t.Errorf("%s not written: %v", name, err)
		}
	}
}
