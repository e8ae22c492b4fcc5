package main

import (
	"strings"
	"testing"

	"bgpvr/internal/clitest"
)

// TestRun pins perfhistory's tables and exit status on a checked-in
// registry: six PRs, each recording a model frame (phases, counters,
// imbalance, critpath, flowsim), a scorecard and a load test, with a
// step from the fourth PR on — compositing 20 % slower, 30 % more
// messages, flowsim wall clock tripled, fidelity score down, c=2
// throughput halved and p99 doubled — and render imbalance creeping 4 %
// a PR, under the pairwise threshold and over it across the history.
func TestRun(t *testing.T) {
	const runs = "testdata/runs.jsonl"
	var rows []string
	add := func(args ...string) { rows = append(rows, strings.Join(args, " ")) }
	add(runs)
	add("-fail", runs)
	add("-threshold", "1", runs)
	add("-threshold", "60", "-fail", runs)
	add("-last", "6", runs)
	add("-last", "9", "-minseg", "1", runs)
	add("testdata/missing.jsonl")
	add()
	add("-h")
	clitest.Run(t, run, "testdata/run.golden", rows)
}
