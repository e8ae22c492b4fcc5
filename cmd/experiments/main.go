// Command experiments regenerates every table and figure of the paper's
// evaluation on the Blue Gene/P machine model and prints the reports.
//
// Usage:
//
//	experiments [-exp all|<exhibit>]        (experiments -h lists the exhibits)
//	experiments -exp fidelity [-scorecard card.json] [-perf-report rep.json]
//	experiments -exp flowscale [-procs 131072] [-flowsim-approx 0.25] [-workers 4] [-n 256] [-img 1024]
//
// The output rows mirror what the paper plots; EXPERIMENTS.md records
// the side-by-side comparison against the published numbers. -exp
// fidelity scores the regenerated Fig 3-7 and Table II results against
// the paper's published values and shape claims (internal/fidelity)
// and prints the per-claim scorecard. -exp flowscale streams the
// direct-send compositing exchange through the max-min contention
// kernel at -procs scale — exactly, or with the bounded-error
// clustered approximation when -flowsim-approx eps > 0 — after
// re-validating the approximation against the exact kernel at small
// core counts; the scale point's observed error lands in the perf
// report's flowsim section. -perf-report is for those two: any other
// exhibit writes no report and is refused with it. One traced model
// frame, with its breakdown, trace and critical path, is bgpvr -mode
// model's.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"bgpvr/internal/bench"
	"bgpvr/internal/cli"
	"bgpvr/internal/core"
	"bgpvr/internal/fidelity"
	"bgpvr/internal/machine"
	"bgpvr/internal/obs"
	"bgpvr/internal/telemetry"
)

// env is what an experiment runs with: the parsed flags and the machine
// model.
type env struct {
	*cli.Run
	mach      machine.Machine
	scorecard string // -scorecard
}

// section prints one exhibit's report under a rule.
func (e *env) section(s string) {
	fmt.Fprintln(e.Out, s)
	fmt.Fprintln(e.Out, strings.Repeat("-", 72))
}

// experiment is one -exp name. The table is the only list of them: the
// flag's help text, the unknown-name error and -exp all (every row that
// is not solo, in this order) are all read off it.
type experiment struct {
	name   string
	solo   bool // runs only when named: it takes -procs/-n/-img, or writes its own perf report
	report bool // writes -perf-report; no other exhibit accepts the flag
	run    func(*env) error
}

var experiments = []experiment{
	{name: "table1", run: func(e *env) error { e.section(bench.Table1()); return nil }},
	{name: "fig3", run: figure(bench.Fig3)},
	{name: "fig4", run: figure(bench.Fig4)},
	{name: "fig5", run: figure(bench.Fig5)},
	{name: "table2", run: figure(bench.Table2)},
	{name: "fig6", run: figure(bench.Fig6)},
	{name: "fig7", run: figure(bench.Fig7)},
	{name: "fig8", run: text(func(machine.Machine) (string, error) { return bench.Fig8(1120) })},
	{name: "fig9", run: figure(bench.Fig9)},
	{name: "fig10", run: figure(bench.Fig10)},
	{name: "preprocess", run: text(bench.PreprocessModel)},
	{name: "iosig", run: text(bench.IOSignature)},
	{name: "imbalance", run: figure(bench.Imbalance)},
	{name: "crossmachine", run: text(func(machine.Machine) (string, error) { return bench.CrossMachine() })},
	{name: "ablations", run: func(e *env) error {
		for _, run := range []func(*env) error{
			figure(func(m machine.Machine) (map[int]float64, string, error) { return bench.AblationCompositors(m, 16384) }),
			text(bench.AblationCompositeAlgo),
			figure(bench.AblationCBBuffer),
			text(bench.AblationContention),
			text(bench.AblationAggregators),
			text(func(m machine.Machine) (string, error) { return bench.AblationPlacement(m, 16384) }),
			text(bench.AblationNetworkModel),
		} {
			if err := run(e); err != nil {
				return err
			}
		}
		return nil
	}},
	{name: "linkmap", solo: true, run: func(e *env) error {
		_, s, err := bench.LinkContention(e.mach, e.Procs)
		if err != nil {
			return err
		}
		fmt.Fprintln(e.Out, s)
		return nil
	}},
	{name: "fidelity", solo: true, report: true, run: fidelityRun},
	{name: "flowscale", solo: true, report: true, run: flowScaleRun},
}

// text adapts an exhibit that returns its report; figure one that also
// returns the points behind it, which only the tests and the scorecard
// read.
func text(f func(machine.Machine) (string, error)) func(*env) error {
	return func(e *env) error {
		s, err := f(e.mach)
		if err != nil {
			return err
		}
		e.section(s)
		return nil
	}
}

func figure[T any](f func(machine.Machine) (T, string, error)) func(*env) error {
	return text(func(m machine.Machine) (string, error) {
		_, s, err := f(m)
		return s, err
	})
}

// names lists what -exp accepts.
func names() string {
	s := "all"
	for _, x := range experiments {
		s += ", " + x.name
	}
	return s
}

// fidelityRun regenerates the paper's exhibits, scores them against
// the published claims, and exports whatever the flags asked for.
func fidelityRun(e *env) error {
	sc, err := fidelity.Evaluate(e.mach)
	if err != nil {
		return err
	}
	fmt.Fprint(e.Out, sc.Text())
	if e.scorecard != "" {
		if err := sc.WriteFile(e.scorecard); err != nil {
			return fmt.Errorf("writing scorecard: %w", err)
		}
		fmt.Fprintf(e.Out, "scorecard: %s\n", e.scorecard)
	}
	if !e.Wanted() {
		return nil
	}
	r := telemetry.NewReport("experiments-fidelity")
	r.Config = map[string]string{"exp": "fidelity", "machine": "bgp"}
	r.Fidelity = sc.Stat()
	return e.Emit(r)
}

// flowScaleRun streams the direct-send compositing exchange through
// the contention kernel at scale (bench.FlowScaleRun), prints the
// wire-level Fig-4 view, and exports the scale point's flowsim section
// when a perf report or run record was asked for.
func flowScaleRun(e *env) error {
	cfg := bench.FlowScaleConfig{Procs: e.Procs, Eps: e.FlowsimApprox, Workers: e.Workers}
	pts, text, err := bench.FlowScaleRun(e.mach, core.DefaultScene(e.N, e.Img), cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(e.Out, text)
	if !e.Wanted() {
		return nil
	}
	pt := pts[len(pts)-1]
	r := telemetry.NewReport("experiments-flowscale")
	r.Config = map[string]string{
		"exp":   "flowscale",
		"n":     strconv.Itoa(e.N),
		"img":   strconv.Itoa(e.Img),
		"procs": strconv.Itoa(cfg.Procs),
		"eps":   strconv.FormatFloat(cfg.Eps, 'g', -1, 64),
	}
	r.TotalSec = pt.ApproxSec
	r.Flowsim = pt.Stat(cfg.Eps, cfg.Workers)
	return e.Emit(r)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	e := env{Run: &cli.Run{Procs: 16384, N: 1120, Img: 1600}, mach: machine.NewBGP()}
	e.Register(fs, map[string]string{
		"procs":          "cores for -exp linkmap or the scale point of -exp flowscale",
		"n":              "volume grid size n^3 for -exp flowscale",
		"img":            "image size for -exp flowscale",
		"perf-report":    "write the run's perf report (-exp flowscale: the scale point's flowsim section; -exp fidelity: the scorecard) to this JSON file",
		"workers":        "worker goroutines for the sweep and render loops (0 = all cores)",
		"flowsim-approx": "clustered-contention error bound eps for -exp flowscale (0 = exact kernel)",
	})
	exp := fs.String("exp", "all", "experiment to run ("+names()+")")
	fs.StringVar(&e.scorecard, "scorecard", "", "write the fidelity scorecard JSON to this file (-exp fidelity)")
	if code, ok := cli.Parse(fs, args, stderr); !ok {
		return code
	}
	e.Start(stdout, stderr)
	defer e.Close()
	bench.Workers = e.Workers
	obs.Note("experiments run: exp=%s procs=%d n=%d img=%d workers=%d eps=%g",
		*exp, e.Procs, e.N, e.Img, e.Workers, e.FlowsimApprox)
	// The sweeps' own tables die with a killed run; the partial report
	// is runtime + pool stats.
	e.Watch(func() *telemetry.Report {
		r := telemetry.NewReport("experiments-" + *exp)
		r.Config = map[string]string{"exp": *exp, "partial": "true"}
		return r
	})
	err := e.Debug(telemetry.DebugSource{})
	if err == nil {
		err = dispatch(&e, *exp)
	}
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	return 0
}

// dispatch runs what -exp names, the named exhibit or all of them. A
// -perf-report that the exhibit would not write is refused.
func dispatch(e *env, exp string) error {
	var named *experiment
	for i := range experiments {
		if experiments[i].name == exp {
			named = &experiments[i]
		}
	}
	switch {
	case named == nil && exp != "all":
		return fmt.Errorf("unknown experiment %q (have %s)", exp, names())
	case e.Wanted() && (named == nil || !named.report):
		return fmt.Errorf("-perf-report: -exp %s writes no report (fidelity and flowscale do)", exp)
	case named != nil:
		return named.run(e)
	}
	for _, x := range experiments {
		if !x.solo {
			if err := x.run(e); err != nil {
				return err
			}
		}
	}
	return nil
}
