// Command bgpvr runs one end-to-end parallel volume rendering frame:
// collective I/O (or in-memory generation), parallel ray casting, and
// direct-send compositing.
//
// Real mode executes with goroutine ranks on real data and writes the
// final image:
//
//	bgpvr -mode real -n 64 -img 256 -procs 8 -m 4 -format raw -o frame.ppm
//
// Model mode computes the virtual frame time at Blue Gene/P scale:
//
//	bgpvr -mode model -n 1120 -img 1600 -procs 16384 -format raw
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"bgpvr/internal/bench"
	"bgpvr/internal/cli"
	"bgpvr/internal/core"
	"bgpvr/internal/critpath"
	"bgpvr/internal/machine"
	"bgpvr/internal/mpiio"
	"bgpvr/internal/obs"
	"bgpvr/internal/stats"
	"bgpvr/internal/telemetry"
	"bgpvr/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// frameArgs carries the parsed flags of a one-shot frame: the ones
// cmd/experiments shares (cli.Run) and bgpvr's own.
type frameArgs struct {
	*cli.Run
	mode, format, path, algo string
	m, frames                int
	persp, shaded            bool
	window                   int64
	ghostExchange            bool
	out, linkmap             string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bgpvr", flag.ContinueOnError)
	a := frameArgs{Run: &cli.Run{Procs: 8, N: 64, Img: 256, FlowsimApprox: -1}}
	a.Indent = "  " // report lines sit under the frame summary
	a.Register(fs, nil)
	fs.StringVar(&a.mode, "mode", "real", "real or model")
	fs.IntVar(&a.m, "m", 0, "compositors (0: real=procs, model=paper's improved rule)")
	fs.StringVar(&a.format, "format", "generate", "generate, raw, netcdf, cdf5, h5")
	fs.StringVar(&a.path, "path", "", "data file (written if absent; default under temp)")
	fs.StringVar(&a.algo, "algo", "direct", "direct, binaryswap, radixk, gather (real mode)")
	fs.BoolVar(&a.persp, "persp", false, "perspective camera")
	fs.Int64Var(&a.window, "cb", 0, "MPI-IO cb_buffer_size hint (0 = chosen by the read planner)")
	fs.BoolVar(&a.ghostExchange, "ghost-exchange", false, "obtain ghost layers by neighbor messages instead of reading them")
	fs.BoolVar(&a.shaded, "shaded", false, "gradient shading (real mode)")
	fs.IntVar(&a.frames, "frames", 1, "time steps to render (real mode; >1 animates the SASI phase)")
	fs.StringVar(&a.out, "o", "", "output PPM path (real mode; %d inserted for -frames > 1)")
	fs.StringVar(&a.linkmap, "linkmap", "", "write the compositing phase's per-link contention map as <prefix>.csv and <prefix>.pgm (model mode)")
	sv := serveArgs{Run: a.Run}
	fs.StringVar(&sv.addr, "serve", "", "run as a persistent render service on this address (e.g. 127.0.0.1:8080); POST /render, GET /status, /metrics, pprof. Ignores -mode and the one-shot flags")
	fs.IntVar(&sv.cfg.MaxConcurrent, "serve-concurrency", 0, "frames rendering at once in serve mode (0 = default 2)")
	fs.IntVar(&sv.cfg.QueueDepth, "serve-queue", 0, "admitted requests waiting beyond the ones in flight before 429 (0 = default 8)")
	fs.DurationVar(&sv.cfg.DefaultDeadline, "serve-deadline", 0, "default per-request deadline in serve mode (0 = 30s)")
	fs.IntVar(&sv.cfg.CacheMB, "serve-cache-mb", 0, "volume field cache budget in MB (0 = 256)")
	fs.DurationVar(&sv.drain, "serve-drain", 15*time.Second, "how long Shutdown waits for in-flight requests on SIGINT/SIGTERM")
	fs.DurationVar(&sv.cfg.SLO, "serve-slo", 0, "per-request latency objective in serve mode; requests over it are tail-sampled into the trace store and, with -diag-dir, dumped as diagnostic bundles (0 disables the SLO rule)")
	fs.StringVar(&sv.cfg.DiagDir, "diag-dir", "", "directory for SLO-breach diagnostic bundles (span tree + metrics + flight record per breaching request)")
	fs.IntVar(&sv.cfg.TraceBudgetMB, "serve-trace-mb", 0, "trace store byte budget in MB for tail-sampled request traces (0 = default 8, -1 disables tracing)")
	fs.IntVar(&sv.cfg.TraceSampleN, "serve-trace-sample", 0, "keep 1-in-N of requests that no tail rule selects (0 = default 16, -1 keeps none of them)")
	if code, ok := cli.Parse(fs, args, stderr); !ok {
		return code
	}
	a.Start(stdout, stderr)
	defer a.Close()
	var err error
	if sv.addr != "" {
		err = runServe(sv, stderr)
	} else {
		err = runFrame(&a)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bgpvr:", err)
		return 1
	}
	return 0
}

// patternize turns a path into a per-frame pattern: a path already
// containing a %d verb is kept, otherwise a frame number is inserted
// before the extension.
func patternize(path string) string {
	if strings.Contains(path, "%") {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "-%04d" + ext
}

func parseFormat(s string) (core.Format, error) {
	switch s {
	case "generate":
		return core.FormatGenerate, nil
	case "raw":
		return core.FormatRaw, nil
	case "netcdf":
		return core.FormatNetCDF, nil
	case "cdf5":
		return core.FormatCDF5, nil
	case "h5":
		return core.FormatH5, nil
	}
	return 0, fmt.Errorf("unknown format %q", s)
}

// critTopK is how many straggler ranks each phase reports.
const critTopK = 5

// analyze assembles the critical-path analysis from whichever source
// the mode produced: the model's prebuilt graph, or the real runtime's
// trace plus dependency recorder. Returns nil when recording was off.
func analyze(g *critpath.Graph, tr *trace.Tracer, rec *critpath.Recorder) *critpath.Analysis {
	if g == nil {
		if rec == nil {
			return nil
		}
		g = critpath.FromTrace(tr, rec)
	}
	return critpath.Analyze(g, critTopK)
}

// finishRun exports what the flags asked for after the frame: the trace
// artifacts, the critical-path analysis and the merged perf report
// (trace breakdown + network/I/O telemetry + critpath/imbalance + the
// run's configuration; cli.Emit adds the runtime stats).
func finishRun(a *frameArgs, tr *trace.Tracer, nt *telemetry.NetTelemetry, an *critpath.Analysis, fs *telemetry.FlowsimStat, totalSec float64) error {
	if tr != nil && a.Trace != "" {
		if err := tr.WriteChromeFile(a.Trace); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(a.Out, "  trace:      %s (open in chrome://tracing or Perfetto)\n", a.Trace)
	}
	if tr != nil && a.Breakdown {
		fmt.Fprint(a.Out, tr.Breakdown().Table())
	}
	if a.CritPath != "" && an != nil {
		fmt.Fprint(a.Out, an.Text())
		if err := an.WriteFile(a.CritPath); err != nil {
			return fmt.Errorf("writing critpath analysis: %w", err)
		}
		fmt.Fprintf(a.Out, "  critpath:   %s\n", a.CritPath)
	}
	if !a.Wanted() {
		return nil
	}
	r := telemetry.NewReport("bgpvr-" + a.mode)
	r.Config = map[string]string{
		"mode":   a.mode,
		"n":      strconv.Itoa(a.N),
		"img":    strconv.Itoa(a.Img),
		"procs":  strconv.Itoa(a.Procs),
		"m":      strconv.Itoa(a.m),
		"format": a.format,
		"algo":   a.algo,
	}
	r.TotalSec = totalSec
	if tr != nil {
		r.AddBreakdown(tr.Breakdown())
	}
	r.AddNetTelemetry(nt)
	r.AddCritPath(an)
	r.Flowsim = fs
	return a.Emit(r)
}

// writeLinkmap exports the model-mode compositing phase's per-link
// contention map as CSV and PGM heatmaps plus a console summary.
func writeLinkmap(a *frameArgs, mach machine.Machine, nt *telemetry.NetTelemetry) error {
	top := mach.TorusFor(a.Procs)
	csvPath, pgmPath, err := telemetry.WriteHeatmapFiles(a.linkmap, top, nt.Links, telemetry.MetricFlows)
	if err != nil {
		return fmt.Errorf("writing linkmap: %w", err)
	}
	fmt.Fprintf(a.Out, "  linkmap:    %s, %s\n", csvPath, pgmPath)
	fmt.Fprint(a.Out, telemetry.UtilizationSummary(top, nt.Links))
	return nil
}

func runFrame(a *frameArgs) error {
	mode, n, imgSize, procs, m := a.mode, a.N, a.Img, a.Procs, a.m
	format, path, algo, out := a.format, a.path, a.algo, a.out
	f, err := parseFormat(format)
	if err != nil {
		return err
	}
	scene := core.DefaultScene(n, imgSize)
	scene.Perspective = a.persp
	scene.Shaded = a.shaded
	scene.RenderWorkers = a.Workers
	hints := mpiio.Hints{CBBufferSize: a.window}

	wantCrit := a.CritPath != "" || a.Wanted() || a.DebugAddr != ""
	wantTrace := a.Trace != "" || a.Breakdown || a.Wanted() || (wantCrit && mode != "model")
	wantNet := a.Wanted() || a.linkmap != "" || a.DebugAddr != ""
	if a.linkmap != "" && mode != "model" {
		return fmt.Errorf("-linkmap requires -mode model")
	}
	if a.FlowsimApprox >= 0 && mode != "model" {
		return fmt.Errorf("-flowsim-approx requires -mode model")
	}
	var nt *telemetry.NetTelemetry
	if wantNet {
		nt = &telemetry.NetTelemetry{}
	}
	var tr *trace.Tracer
	if wantTrace {
		if mode == "model" {
			tr = trace.NewVirtual(1)
		} else {
			tr = trace.New(procs)
		}
	}
	// critA holds the finished frame's critical-path analysis for the
	// debug endpoint; /critpath answers 503 until the run completes.
	var critA atomic.Pointer[critpath.Analysis]
	if err := a.Debug(telemetry.DebugSource{
		Tracer: tr, Net: nt,
		Crit: func() *critpath.Analysis { return critA.Load() },
	}, "pprof, expvar, /telemetry, /metrics, /critpath, /runs"); err != nil {
		return err
	}
	obs.Note("bgpvr run: mode=%s n=%d img=%d procs=%d m=%d format=%s algo=%s workers=%d",
		mode, n, imgSize, procs, m, format, algo, a.Workers)
	a.Watch(func() *telemetry.Report {
		r := telemetry.NewReport("bgpvr-" + mode)
		r.Config = map[string]string{"mode": mode, "partial": "true"}
		if tr != nil {
			r.AddBreakdown(tr.Breakdown())
		}
		r.AddNetTelemetry(nt)
		return r
	})

	switch mode {
	case "model":
		mach := machine.NewBGP()
		var cg *critpath.Graph
		if wantCrit {
			cg = critpath.NewGraph(procs)
		}
		res, err := core.RunModel(core.ModelConfig{
			Scene: scene, Procs: procs, Compositors: m, Format: f, Hints: hints,
			Machine: mach, Trace: tr, Net: nt, CritPath: cg})
		if err != nil {
			return err
		}
		an := analyze(cg, nil, nil)
		critA.Store(an)
		fmt.Fprintf(a.Out, "model frame: %d^3 volume, %d^2 image, %d cores, format %v\n", n, imgSize, procs, f)
		fmt.Fprintf(a.Out, "  I/O:        %s (%.1f%%)  read bw %s\n",
			stats.Seconds(res.Times.IO), core.Percent(res.Times.IO, res.Times.Total), stats.Rate(res.ReadBW))
		fmt.Fprintf(a.Out, "  render:     %s (%.1f%%)\n",
			stats.Seconds(res.Times.Render), core.Percent(res.Times.Render, res.Times.Total))
		fmt.Fprintf(a.Out, "  composite:  %s (%.1f%%)  %d messages, mean %.0f B\n",
			stats.Seconds(res.Times.Composite), core.Percent(res.Times.Composite, res.Times.Total),
			res.Messages, res.MeanMessageBytes)
		fmt.Fprintf(a.Out, "  total:      %s\n", stats.Seconds(res.Times.Total))
		if f != core.FormatGenerate {
			fmt.Fprintf(a.Out, "  physical I/O: %s in %d accesses (density %.3f)\n",
				stats.Bytes(res.IO.PhysicalBytes), res.IO.Accesses, res.IO.Density())
		}
		var fs *telemetry.FlowsimStat
		if eps := a.FlowsimApprox; eps >= 0 {
			pt, err := bench.FlowScaleAt(mach, scene, bench.FlowScaleConfig{
				Procs: procs, M: m, Eps: eps, Workers: a.Workers,
			})
			if err != nil {
				return err
			}
			fs = pt.Stat(eps, a.Workers)
			kernel := "exact kernel"
			if eps > 0 {
				kernel = fmt.Sprintf("eps=%g", eps)
			}
			fmt.Fprintf(a.Out, "  flowsim:    composite %s wire-level (%s, %d msgs, err %.4f %s, wall %s)\n",
				stats.Seconds(pt.ApproxSec), kernel, pt.Msgs, pt.ObservedErr, pt.ErrKind(),
				stats.Seconds(pt.WallSec))
		}
		if a.linkmap != "" {
			if err := writeLinkmap(a, mach, nt); err != nil {
				return err
			}
		}
		return finishRun(a, tr, nt, an, fs, res.Times.Total)

	case "real":
		var rec *critpath.Recorder
		if wantCrit {
			rec = critpath.NewRecorder(tr, 1<<16)
		}
		cfg := core.RealConfig{Scene: scene, Procs: procs, Compositors: m, Format: f,
			Hints: hints, GhostExchange: a.ghostExchange, Trace: tr, Net: nt, CritPath: rec}
		if cfg.Algo, err = core.ParseCompositeAlgo(algo); err != nil {
			return err
		}
		if f != core.FormatGenerate {
			if path == "" {
				path = filepath.Join(os.TempDir(), fmt.Sprintf("bgpvr-%d-%v.dat", n, f))
			}
			if _, err := os.Stat(path); err != nil {
				fmt.Fprintf(a.Out, "writing %v time step to %s ...\n", f, path)
				if err := core.WriteSceneFile(path, f, scene); err != nil {
					return err
				}
			}
			cfg.Path = path
		}
		if a.frames > 1 {
			seqCfg := core.SequenceConfig{Base: cfg, Steps: a.frames, TimeDelta: 0.4}
			if f != core.FormatGenerate {
				seqCfg.PathPattern = patternize(cfg.Path)
				cfg.Path = ""
			}
			if out != "" {
				seqCfg.ImagePattern = patternize(out)
			}
			seq, err := core.RunSequence(seqCfg)
			if err != nil {
				return err
			}
			tot := seq.TotalTimes()
			fmt.Fprintf(a.Out, "sequence: %d frames, %d^3 volume, %d ranks\n", a.frames, n, procs)
			fmt.Fprintf(a.Out, "  totals: io=%s render=%s composite=%s\n",
				stats.Seconds(tot.IO), stats.Seconds(tot.Render), stats.Seconds(tot.Composite))
			for _, p := range seq.Images {
				fmt.Fprintln(a.Out, "  image:", p)
			}
			an := analyze(nil, tr, rec)
			critA.Store(an)
			return finishRun(a, tr, nt, an, nil, tot.Total)
		}
		res, err := core.RunReal(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(a.Out, "real frame: %d^3 volume, %d^2 image, %d ranks, format %v, algo %s\n",
			n, imgSize, procs, f, algo)
		fmt.Fprintf(a.Out, "  I/O:        %s\n", stats.Seconds(res.Times.IO))
		fmt.Fprintf(a.Out, "  render:     %s  (%d samples, imbalance %.2f)\n",
			stats.Seconds(res.Times.Render), res.Samples, res.SampleBalance)
		fmt.Fprintf(a.Out, "  composite:  %s  (%d messages, %s)\n",
			stats.Seconds(res.Times.Composite), res.Traffic.Messages, stats.Bytes(res.Traffic.TotalBytes))
		fmt.Fprintf(a.Out, "  total:      %s\n", stats.Seconds(res.Times.Total))
		if f != core.FormatGenerate {
			fmt.Fprintf(a.Out, "  physical I/O: %s in %d accesses (density %.3f)\n",
				stats.Bytes(res.IO.PhysicalBytes), res.IO.Accesses, res.IO.Density())
		}
		if out != "" {
			if err := res.Image.WritePPM(out, 0); err != nil {
				return err
			}
			fmt.Fprintf(a.Out, "  image:      %s\n", out)
		}
		an := analyze(nil, tr, rec)
		critA.Store(an)
		return finishRun(a, tr, nt, an, nil, res.Times.Total)
	}
	return fmt.Errorf("unknown mode %q", mode)
}
