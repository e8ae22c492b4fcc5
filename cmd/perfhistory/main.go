// Command perfhistory renders the run registry (internal/runstore,
// appended by -run-record) as per-metric trend tables: one line per
// tracked metric with a sparkline over the last N stored runs, the
// newest value, and a drift flag from a rolling changepoint test.
// The metrics are the stored reports' own lists
// (telemetry.Report.Metrics, transposed by runstore.Metrics): every
// name cmd/perfdiff compares is trended here, plus host wall-clock
// time, which perfdiff never gates on. Where perfdiff compares exactly
// two reports, perfhistory watches the whole trajectory, so a
// regression that creeps in over several PRs — each step below the
// pairwise threshold — still surfaces.
//
// Usage:
//
//	perfhistory [-last 20] [-minseg 2] [-threshold 10] [-fail] runs.jsonl
//
// Exit status: 0 normally, 2 with -fail when any metric drifted in the
// degrading direction, 1 on usage or read errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"bgpvr/internal/cli"
	"bgpvr/internal/runstore"
	"bgpvr/internal/stats"
	"bgpvr/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfhistory", flag.ContinueOnError)
	last := fs.Int("last", 20, "number of most recent runs to analyze")
	minSeg := fs.Int("minseg", 2, "minimum runs on each side of a changepoint split")
	threshold := fs.Float64("threshold", 10, "drift threshold in percent")
	failOnDrift := fs.Bool("fail", false, "exit 2 when any metric drifts in the degrading direction")
	if code, ok := cli.Parse(fs, args, stderr); !ok {
		return code
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: perfhistory [-last n] [-minseg n] [-threshold pct] [-fail] runs.jsonl")
		return 1
	}
	recs, err := runstore.Read(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "perfhistory:", err)
		return 1
	}
	if len(recs) == 0 {
		fmt.Fprintln(stdout, "run store is empty")
		return 0
	}
	if *last > 0 && len(recs) > *last {
		recs = recs[len(recs)-*last:]
	}
	first, latest := recs[0], recs[len(recs)-1]
	fmt.Fprintf(stdout, "run history: %d runs, %s (%s) .. %s (%s)\n",
		len(recs), first.Time, first.GitRev, latest.Time, latest.GitRev)

	// A claim's status is a rank: perfdiff reports its flips, there is
	// no trend to draw.
	var series []runstore.Series
	nameW := 0
	for _, s := range runstore.Metrics(recs) {
		if s.Gate == telemetry.GateStatus || s.Valid() < 1 {
			continue
		}
		series = append(series, s)
		nameW = max(nameW, len(s.Name))
	}
	degraded := 0
	for _, s := range series {
		flagTxt := ""
		cp := runstore.DetectChange(s.Values, *minSeg, *threshold/100)
		if cp != nil {
			dir := "improved"
			if s.Gate.Worse(cp.Shift) {
				dir = "DRIFT"
				degraded++
			}
			rev := "?"
			if cp.Index < len(recs) {
				rev = recs[cp.Index].GitRev
			}
			flagTxt = fmt.Sprintf("  %s %+.1f%% at run %d (%s): %s -> %s",
				dir, 100*cp.Shift, cp.Index+1, rev,
				telemetry.FormatValue(s.Unit, cp.Before), telemetry.FormatValue(s.Unit, cp.After))
		}
		fmt.Fprintf(stdout, "%-*s  %-*s  latest %10s%s\n",
			nameW, s.Name, len(recs), stats.Sparkline(s.Values), telemetry.FormatValue(s.Unit, s.Last()), flagTxt)
	}
	if degraded > 0 {
		fmt.Fprintf(stdout, "%d metric(s) drifted beyond %.0f%% in the degrading direction\n", degraded, *threshold)
		if *failOnDrift {
			return 2
		}
	}
	return 0
}
