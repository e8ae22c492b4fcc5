package main

import (
	"strings"
	"testing"

	"bgpvr/internal/clitest"
)

// TestRun pins perfdiff's output and exit status: the two checked-in
// CI baselines against perturbed copies (testdata/, each perturbation
// noted in the row it shows up in) for every -only class with and
// without -warn, the exact CI invocations against an unchanged report,
// a service pair, and the usage errors.
func TestRun(t *testing.T) {
	const (
		perf, perfNew = "../../ci/perf-baseline.json", "testdata/perf-perturbed.json"
		fid, fidNew   = "../../ci/fidelity-baseline.json", "testdata/fidelity-perturbed.json"
		svc, svcNew   = "testdata/service-old.json", "testdata/service-new.json"
	)
	var rows []string
	add := func(args ...string) { rows = append(rows, strings.Join(args, " ")) }
	for _, class := range []string{"timing", "counters", "imbalance", "fidelity", "flowsim", "service", "all"} {
		add("-only", class, perf, perfNew)
		add("-only", class, "-warn", perf, perfNew)
		add("-only", class, fid, fidNew)
		add("-only", class, "-warn", fid, fidNew)
	}
	// What CI runs, against a report that did not move: every line
	// +0.0 %, every exit 0.
	add("-threshold", "10", "-only", "timing", "-warn", perf, perf)
	add("-threshold", "10", "-only", "counters", "-warn", perf, perf)
	add("-threshold", "10", "-only", "imbalance", perf, perf)
	add("-threshold", "10", "-only", "flowsim", perf, perf)
	add("-threshold", "5", "-only", "fidelity", fid, fid)
	// The score fell 3.1 %: under CI's 5 %, over 2 %.
	add("-threshold", "5", "-only", "fidelity", fid, fidNew)
	add("-threshold", "2", "-only", "fidelity", fid, fidNew)
	// p99 up, throughput down, error rate off zero at c=4; one flaky
	// request in 10000 at c=16 (under the 0.1 % floor); c=8 and c=32 on
	// one side only.
	add("-only", "service", svc, svcNew)
	add(svc, svcNew)
	add("-only", "nosuch", perf, perfNew)
	add(perf)
	add()
	add(perf, "testdata/missing.json")
	add("-h")
	clitest.Run(t, run, "testdata/run.golden", rows)
}
