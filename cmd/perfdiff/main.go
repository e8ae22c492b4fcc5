// Command perfdiff compares two perf reports written by -perf-report
// and flags what got worse. It joins the reports' own metric lists
// (telemetry.Report.Metrics, which also says how each metric is judged)
// by name, so it compares whatever both carry — a report of an older
// schema just has fewer names — in six classes: timing, counters,
// imbalance (with the critical-path duration), fidelity (the score, and
// any claim's status), flowsim (observed error against the baseline and
// against the run's own eps) and service (p99, throughput, error rate
// per concurrency level). CI runs it against the checked-in baselines,
// so a PR that slows a modeled frame down, distributes its load worse
// or drifts from the paper's curves shows in the job log. Its one job
// is deterministic virtual-time and model drift between exactly two
// reports: a slow drift piles up against the fixed baseline and shows
// there too, and wall-clock comparison with measured noise is benchmark
// -compare's (DESIGN.md, "Comparing two runs").
//
// Usage:
//
//	perfdiff [-threshold 10] [-only timing|counters|imbalance|fidelity|flowsim|service|all] [-warn] old.json new.json
//
// Exit status: 0 when no metric regressed (or -warn is set), 2 when at
// least one did, 1 on usage or read errors (including a report whose
// schema is newer than this build reads).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"bgpvr/internal/cli"
	"bgpvr/internal/telemetry"
)

const classes = "timing|counters|imbalance|fidelity|flowsim|service|all"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfdiff", flag.ContinueOnError)
	threshold := fs.Float64("threshold", 10, "regression threshold in percent")
	only := fs.String("only", "all", "metric classes to diff: "+strings.ReplaceAll(classes, "|", ", "))
	warn := fs.Bool("warn", false, "report regressions but exit 0 (CI warn-only mode)")
	if code, ok := cli.Parse(fs, args, stderr); !ok {
		return code
	}
	if !slices.Contains(strings.Split(classes, "|"), *only) || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfdiff [-threshold pct] [-only "+classes+"] [-warn] old.json new.json")
		return 1
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "perfdiff:", err)
		return 1
	}
	oldPath, newPath := fs.Arg(0), fs.Arg(1)
	old, err := telemetry.ReadReport(oldPath)
	if err != nil {
		return fail(err)
	}
	cur, err := telemetry.ReadReport(newPath)
	if err != nil {
		return fail(err)
	}
	regressions := 0
	for _, d := range telemetry.Compare(old, cur, *threshold/100) {
		if *only != "all" && *only != d.Class {
			continue
		}
		mark := ""
		if d.Regression {
			mark = "  REGRESSION"
			regressions++
		}
		change := fmt.Sprintf("%+6.1f%%", 100*d.Change())
		if d.Unit == "status" { // a rank flip, not a percentage
			change = "      -"
		}
		fmt.Fprintf(stdout, "%-32s %12s -> %12s  %s%s\n", d.Metric,
			telemetry.FormatValue(d.Unit, d.Old), telemetry.FormatValue(d.Unit, d.New), change, mark)
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "%d metric(s) regressed beyond %.0f%% (%s vs %s)\n",
			regressions, *threshold, oldPath, newPath)
		if !*warn {
			return 2
		}
		fmt.Fprintln(stdout, "warn-only mode: not failing")
	}
	return 0
}
