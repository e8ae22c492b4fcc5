package main

import (
	"path/filepath"
	"testing"

	"bgpvr/internal/clitest"
)

// TestRun pins the flag surface (-h: names, defaults, help), one
// exhibit, the traced model frame with its perf report, and the
// unknown-experiment error. Everything here is model time, so the
// transcript is deterministic.
func TestRun(t *testing.T) {
	tmp := clitest.Run(t, run, "testdata/run.golden", []string{
		"-h",
		"-exp table1",
		"-breakdown -procs 64 -n 64 -img 128 -perf-report $TMP/frame.json",
		"-exp nosuch",
		"-nosuch",
	})
	clitest.GoldenReport(t, filepath.Join(tmp, "frame.json"), "testdata/frame-report.golden.json")
}
