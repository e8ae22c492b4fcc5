package main

import (
	"path/filepath"
	"testing"

	"bgpvr/internal/clitest"
)

// TestRun pins the flag surface (-h: names, defaults, help), a tiny
// model-mode frame with its perf report and critical-path report, the
// same frame priced on binary swap, and the argument errors (radix-k
// has no modeled schedule). Model time only, so the transcript is
// deterministic; real mode prints wall-clock readings and is covered
// by internal/core.
func TestRun(t *testing.T) {
	tmp := clitest.Run(t, run, "testdata/run.golden", []string{
		"-h",
		"-mode model -n 32 -img 64 -procs 8 -format raw -breakdown -critpath $TMP/crit.json -perf-report $TMP/model.json",
		"-mode model -n 32 -img 64 -procs 8 -format netcdf",
		"-mode model -n 32 -img 64 -procs 8 -format raw -algo binaryswap",
		"-mode model -n 32 -img 64 -procs 8 -algo radixk",
		"-mode nosuch",
		"-mode real -format nosuch",
		"-mode real -linkmap x",
		"-mode real -flowsim-approx 0",
		"-nosuch",
	})
	clitest.GoldenReport(t, filepath.Join(tmp, "model.json"), "testdata/model-report.golden.json")
}
