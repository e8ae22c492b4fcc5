package main

import (
	"testing"

	"bgpvr/internal/clitest"
)

// TestRun pins the flag surface (-h: names, defaults, help), one
// exhibit, a -perf-report the exhibit would not write, and the
// unknown-experiment error. Everything here is model time, so the
// transcript is deterministic.
func TestRun(t *testing.T) {
	clitest.Run(t, run, "testdata/run.golden", []string{
		"-h",
		"-exp table1",
		"-exp table1 -perf-report $TMP/table1.json",
		"-exp nosuch",
		"-nosuch",
	})
}
