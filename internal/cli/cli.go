// Package cli is what the report-writing binaries share: the sixteen
// flags cmd/bgpvr and cmd/experiments both take, the start-up those
// flags ask for (heartbeat, flight recorder with a partial perf report,
// debug endpoint), and the one tail that finishes a perf report.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"bgpvr/internal/obs"
	"bgpvr/internal/par"
	"bgpvr/internal/runstore"
	"bgpvr/internal/telemetry"
)

// Parse parses args into fs the way flag.ExitOnError would, returning
// instead of exiting: when ok is false the caller returns code (0 after
// -h, 2 after a bad flag; the message went to stderr).
func Parse(fs *flag.FlagSet, args []string, stderr io.Writer) (code int, ok bool) {
	fs.SetOutput(stderr)
	switch err := fs.Parse(args); {
	case err == nil:
		return 0, true
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	}
	return 2, false
}

// setHelp replaces the help text of the named flags: where a shared
// flag means something narrower in one binary, that binary says so. A
// name that is not registered is a typo in the caller and panics.
func setHelp(fs *flag.FlagSet, help map[string]string) {
	for name, text := range help {
		fs.Lookup(name).Usage = text
	}
}

// Emitter finishes a perf report. Every binary that writes one ends in
// Emit.
type Emitter struct {
	PerfReport string    // -perf-report
	RunRecord  string    // -run-record
	Timestamp  string    // the run record's RFC3339 time; "" is now
	Workers    int       // pool width stamped into the runtime section
	Started    time.Time // start of the wall clock stamped there
	Out        io.Writer // where Emit says what it wrote
	Indent     string    // prefix of those lines
}

// Register declares -perf-report and -run-record on fs.
func (e *Emitter) Register(fs *flag.FlagSet, help map[string]string) {
	fs.StringVar(&e.PerfReport, "perf-report", "", "write a machine-readable perf report (breakdown + telemetry + runtime stats) to this JSON file")
	fs.StringVar(&e.RunRecord, "run-record", "", "append this run's perf report to the JSONL run registry (see cmd/perfhistory)")
	setHelp(fs, help)
}

// Wanted reports whether either flag asked for a report, so a caller
// can skip assembling one nobody reads.
func (e *Emitter) Wanted() bool { return e.PerfReport != "" || e.RunRecord != "" }

// stamp fills the runtime section, pool width and the pool's realized
// speedup (worker-busy time over pool-call elapsed time) included.
func (e *Emitter) stamp(r *telemetry.Report) {
	r.AddRuntime(time.Since(e.Started).Seconds())
	r.Runtime.Workers = e.Workers
	if busy, wall := par.Stats(); wall > 0 {
		r.Runtime.ParallelSpeedup = busy.Seconds() / wall.Seconds()
	}
}

// Emit stamps r with runtime and pool stats, writes it to -perf-report
// and appends it to the -run-record registry, whichever were given.
func (e *Emitter) Emit(r *telemetry.Report) error {
	e.stamp(r)
	if e.PerfReport != "" {
		if err := r.WriteFile(e.PerfReport); err != nil {
			return fmt.Errorf("writing perf report: %w", err)
		}
		fmt.Fprintf(e.Out, "%sperf report: %s\n", e.Indent, e.PerfReport)
	}
	if e.RunRecord != "" {
		ts := e.Timestamp
		if ts == "" {
			ts = time.Now().UTC().Format(time.RFC3339)
		}
		rec := runstore.NewRecord(r, runstore.GitRev(), ts)
		if err := runstore.Append(e.RunRecord, rec); err != nil {
			return fmt.Errorf("recording run: %w", err)
		}
		fmt.Fprintf(e.Out, "%srun record: %s (run %s)\n", e.Indent, e.RunRecord, rec.ID)
	}
	return nil
}

// Run is one invocation of cmd/bgpvr or cmd/experiments: the flags
// they share and what those flags hold open while the run executes.
// Set the fields whose defaults differ from zero, Register, parse,
// Start, and defer Close.
type Run struct {
	Emitter
	Trace            string
	Breakdown        bool
	Procs, N, Img    int
	CritPath         string
	DebugAddr        string
	FlowsimApprox    float64
	Progress         bool
	ProgressInterval time.Duration
	CrashDump        string
	SoftDeadline     time.Duration

	stop []func()
}

// Register declares the shared flags on fs with the fields' current
// values as defaults; help replaces the text of the flags it names.
func (r *Run) Register(fs *flag.FlagSet, help map[string]string) {
	r.Emitter.Register(fs, nil)
	fs.StringVar(&r.Trace, "trace", "", "write a Chrome trace_event JSON of the frame (chrome://tracing, Perfetto)")
	fs.BoolVar(&r.Breakdown, "breakdown", false, "print the per-phase end-to-end breakdown table")
	fs.IntVar(&r.Procs, "procs", r.Procs, "number of ranks")
	fs.IntVar(&r.N, "n", r.N, "volume grid size n^3")
	fs.IntVar(&r.Img, "img", r.Img, "image size (square)")
	fs.StringVar(&r.CritPath, "critpath", "", "print the critical-path & load-imbalance report and write the full analysis as JSON to this file")
	fs.StringVar(&r.DebugAddr, "debug-addr", "", "serve a live debug endpoint (net/http/pprof, expvar, /telemetry) on this address while the run executes")
	fs.IntVar(&r.Workers, "workers", 0, "worker goroutines for the parallel render loops (0 = all cores)")
	fs.Float64Var(&r.FlowsimApprox, "flowsim-approx", r.FlowsimApprox, "cross-check the model's compositing phase with the max-min flow kernel: 0 runs it exactly, eps > 0 the bounded-error clustered approximation where the torus clears its floor and the exact kernel elsewhere (< 0 skips; model mode)")
	fs.BoolVar(&r.Progress, "progress", false, "emit periodic structured progress heartbeats (phase done/total, rate, ETA) to stderr")
	fs.DurationVar(&r.ProgressInterval, "progress-interval", obs.DefaultHeartbeatInterval, "heartbeat period for -progress")
	fs.StringVar(&r.CrashDump, "crash-dump", "", "write a flight record (recent events, phase progress, metrics, goroutine stacks) to this file on SIGQUIT/SIGTERM or -soft-deadline, then exit")
	fs.DurationVar(&r.SoftDeadline, "soft-deadline", 0, "dump the flight record and exit this long after start; set it just below an external kill budget so the run leaves a post-mortem (0 disables)")
	setHelp(fs, help)
}

// Start begins the run once the flags are parsed: the wall clock, the
// resolved -workers width, and the -progress heartbeat.
func (r *Run) Start(stdout, stderr io.Writer) {
	r.Out, r.Started = stdout, time.Now()
	r.Workers = par.Workers(r.Workers)
	if r.Progress {
		hb := obs.StartHeartbeat(slog.New(slog.NewTextHandler(stderr, nil)), r.ProgressInterval)
		r.stop = append(r.stop, hb.Stop)
	}
}

// Watch arms the flight recorder when -crash-dump or -soft-deadline
// asks for one: a kill (or the soft deadline) dumps recent events,
// phase progress, metrics and goroutine stacks to the crash file and,
// when partial is set and -perf-report given, a best-effort partial
// perf report — partial returns whatever sections the run has so far —
// so even a killed run leaves machine-readable evidence. signals
// overrides which signals trigger the dump (obs.WatchdogConfig).
func (r *Run) Watch(partial func() *telemetry.Report, signals ...os.Signal) {
	if r.CrashDump == "" && r.SoftDeadline <= 0 {
		return
	}
	cfg := obs.WatchdogConfig{Path: r.CrashDump, SoftDeadline: r.SoftDeadline, Signals: signals}
	if partial != nil && r.PerfReport != "" {
		cfg.Extra = func(w io.Writer) { r.writePartial(w, partial()) }
	}
	r.stop = append(r.stop, obs.StartWatchdog(cfg).Stop)
}

// writePartial stamps and writes a dying run's report, telling the
// crash file w how that went.
func (r *Run) writePartial(w io.Writer, rep *telemetry.Report) {
	r.stamp(rep)
	if err := rep.WriteFile(r.PerfReport); err != nil {
		fmt.Fprintf(w, "\npartial perf report: write failed: %v\n", err)
		return
	}
	fmt.Fprintf(w, "\npartial perf report written to %s\n", r.PerfReport)
}

// Debug serves the live debug endpoint when -debug-addr asks for one;
// views names what this binary's endpoint offers, for the line that
// announces it.
func (r *Run) Debug(src telemetry.DebugSource, views string) error {
	if r.DebugAddr == "" {
		return nil
	}
	src.RunsPath = r.RunRecord
	srv, err := telemetry.StartDebug(r.DebugAddr, src)
	if err != nil {
		return err
	}
	r.stop = append(r.stop, func() { _ = srv.Close() })
	fmt.Fprintf(r.Out, "debug endpoint: http://%s/ (%s)\n", srv.Addr, views)
	return nil
}

// Close stops what Start, Watch and Debug started, newest first.
func (r *Run) Close() {
	for i := len(r.stop) - 1; i >= 0; i-- {
		r.stop[i]()
	}
	r.stop = nil
}
