package main

import (
	"testing"

	"bgpvr/internal/clitest"
)

// TestRun pins the flag surface and the argument errors. A load run
// prints wall-clock latencies, so every row here stops before a
// request is sent.
func TestRun(t *testing.T) {
	clitest.Run(t, run, "testdata/run.golden", []string{
		"-h",
		"-nosuch",
		"-sweep 1,x",
		"-mode banana",
	})
}
