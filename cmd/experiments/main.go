// Command experiments regenerates every table and figure of the paper's
// evaluation on the Blue Gene/P machine model and prints the reports.
//
// Usage:
//
//	experiments [-exp all|<exhibit>]        (experiments -h lists the exhibits)
//	experiments -exp fidelity [-scorecard card.json] [-perf-report rep.json]
//	experiments -exp flowscale [-procs 131072] [-flowsim-approx 0.25] [-workers 4] [-n 256] [-img 1024]
//	experiments -breakdown [-procs 16384] [-trace frame.json]
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
// report's flowsim section. The last form traces one
// end-to-end model frame of the paper's base configuration (1120^3
// volume, 1600^2 image, raw format) instead: -breakdown prints the
// Fig 5-7 per-phase table and -trace writes the virtual timeline as
// Chrome trace_event JSON.
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
	"bgpvr/internal/critpath"
	"bgpvr/internal/fidelity"
	"bgpvr/internal/machine"
	"bgpvr/internal/obs"
	"bgpvr/internal/stats"
	"bgpvr/internal/telemetry"
	"bgpvr/internal/trace"
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
	name string
	solo bool // runs only when named: it takes -procs/-n/-img, or writes its own perf report
	run  func(*env) error
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
	{name: "fidelity", solo: true, run: fidelityRun},
	{name: "flowscale", solo: true, run: flowScaleRun},
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

// tracedFrame runs one model-mode frame of the paper's base workload
// with a virtual tracer (and, when a flag wants one, a causal event
// graph) and exports what the flags asked for.
func tracedFrame(e *env) error {
	tr := trace.NewVirtual(1)
	var nt *telemetry.NetTelemetry
	if e.Wanted() {
		nt = &telemetry.NetTelemetry{}
	}
	var cg *critpath.Graph
	if e.CritPath != "" || e.Wanted() {
		cg = critpath.NewGraph(e.Procs)
	}
	scene := core.DefaultScene(e.N, e.Img)
	scene.RenderWorkers = e.Workers
	res, err := core.RunModel(core.ModelConfig{
		Scene:    scene,
		Procs:    e.Procs,
		Format:   core.FormatRaw,
		Trace:    tr,
		Net:      nt,
		CritPath: cg,
	})
	if err != nil {
		return err
	}
	var an *critpath.Analysis
	if cg != nil {
		an = critpath.Analyze(cg, 5)
	}
	fmt.Fprintf(e.Out, "model frame: %d^3 volume, %d^2 image, %d cores, total %s\n",
		e.N, e.Img, e.Procs, stats.Seconds(res.Times.Total))
	if e.Breakdown {
		fmt.Fprint(e.Out, tr.Breakdown().Table())
	}
	if e.Trace != "" {
		if err := tr.WriteChromeFile(e.Trace); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(e.Out, "trace: %s (open in chrome://tracing or Perfetto)\n", e.Trace)
	}
	if e.CritPath != "" {
		fmt.Fprint(e.Out, an.Text())
		if err := an.WriteFile(e.CritPath); err != nil {
			return fmt.Errorf("writing critpath analysis: %w", err)
		}
		fmt.Fprintf(e.Out, "critpath: %s\n", e.CritPath)
	}
	if !e.Wanted() {
		return nil
	}
	r := telemetry.NewReport("experiments-frame")
	r.Config = map[string]string{
		"mode":   "model",
		"n":      strconv.Itoa(e.N),
		"img":    strconv.Itoa(e.Img),
		"procs":  strconv.Itoa(e.Procs),
		"format": "raw",
	}
	r.TotalSec = res.Times.Total
	r.AddBreakdown(tr.Breakdown())
	r.AddNetTelemetry(nt)
	r.AddCritPath(an)
	return e.Emit(r)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	e := env{Run: &cli.Run{Procs: 16384, N: 1120, Img: 1600}, mach: machine.NewBGP()}
	e.Register(fs, map[string]string{
		"trace":          "trace one base-config model frame to this Chrome trace_event JSON instead of running experiments",
		"breakdown":      "print the traced frame's per-phase breakdown table instead of running experiments",
		"procs":          "cores for the traced frame (-trace/-breakdown) or -exp linkmap",
		"n":              "volume grid size n^3 for the traced frame",
		"img":            "image size for the traced frame",
		"perf-report":    "write the run's perf report (breakdown + telemetry + runtime; -exp fidelity: the scorecard) to this JSON file",
		"critpath":       "print the traced frame's critical-path & load-imbalance report and write the analysis JSON to this file",
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

// dispatch runs what -exp names. A solo experiment runs when named;
// otherwise any of the traced-frame flags replaces the experiments with
// one traced model frame; otherwise the named exhibit, or all of them.
func dispatch(e *env, exp string) error {
	var named *experiment
	for i := range experiments {
		if experiments[i].name == exp {
			named = &experiments[i]
		}
	}
	switch {
	case named != nil && named.solo:
		return named.run(e)
	case e.Trace != "" || e.Breakdown || e.CritPath != "" || e.Wanted():
		return tracedFrame(e)
	case named != nil:
		return named.run(e)
	case exp != "all":
		return fmt.Errorf("unknown experiment %q (have %s)", exp, names())
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
