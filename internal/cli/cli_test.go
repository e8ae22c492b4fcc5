package cli

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bgpvr/internal/obs"
	"bgpvr/internal/runstore"
	"bgpvr/internal/telemetry"
)

// TestRegister pins the shared registration: fifteen flags, the
// caller's defaults, the caller's help where it names a flag, and
// values landing in the fields.
func TestRegister(t *testing.T) {
	r := Run{Procs: 8, N: 64, Img: 256, FlowsimApprox: -1}
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	r.Register(fs, map[string]string{"procs": "cores, here"})
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 15 {
		t.Errorf("%d shared flags registered, want 15", n)
	}
	for name, def := range map[string]string{"procs": "8", "n": "64", "img": "256", "flowsim-approx": "-1",
		"workers": "0", "progress-interval": obs.DefaultHeartbeatInterval.String()} {
		if got := fs.Lookup(name).DefValue; got != def {
			t.Errorf("-%s default %q, want %q", name, got, def)
		}
	}
	if got := fs.Lookup("procs").Usage; got != "cores, here" {
		t.Errorf("-procs help %q, want the caller's", got)
	}
	if got := fs.Lookup("n").Usage; got != "volume grid size n^3" {
		t.Errorf("-n help %q, want the shared text", got)
	}
	if code, ok := Parse(fs, []string{"-procs", "32", "-perf-report", "r.json", "-soft-deadline", "3s", "-flowsim-approx", "0.25"}, io.Discard); !ok || code != 0 {
		t.Fatalf("Parse = %d, %v", code, ok)
	}
	if r.Procs != 32 || r.PerfReport != "r.json" || r.SoftDeadline != 3*time.Second || r.FlowsimApprox != 0.25 || !r.Wanted() {
		t.Errorf("parsed values did not land: %+v", r)
	}

	// -h and a bad flag return instead of exiting, with ExitOnError's codes.
	var usage bytes.Buffer
	if code, ok := Parse(fs, []string{"-h"}, &usage); ok || code != 0 || !strings.Contains(usage.String(), "-soft-deadline duration") {
		t.Errorf("Parse(-h) = %d, %v; usage:\n%s", code, ok, usage.String())
	}
	if code, ok := Parse(fs, []string{"-nosuch"}, io.Discard); ok || code != 2 {
		t.Errorf("Parse(-nosuch) = %d, %v, want 2, false", code, ok)
	}
}

// TestEmit pins the one report tail: runtime and pool stats stamped,
// the report written, the run appended under the given timestamp, and
// both announced under the emitter's indent.
func TestEmit(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	e := Emitter{
		PerfReport: filepath.Join(dir, "sub", "rep.json"), RunRecord: filepath.Join(dir, "runs.jsonl"),
		Timestamp: "2026-08-06T00:00:00Z", Workers: 3, Started: time.Now().Add(-2 * time.Second),
		Out: &out, Indent: "  ",
	}
	rep := telemetry.NewReport("test")
	rep.TotalSec = 1.5
	if err := e.Emit(rep); err != nil {
		t.Fatal(err)
	}
	got, err := telemetry.ReadReport(e.PerfReport)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalSec != 1.5 || got.Runtime == nil || got.Runtime.GoVersion == "" || got.Runtime.Workers != 3 || got.Runtime.WallSec < 2 {
		t.Errorf("written report not stamped: %+v runtime %+v", got, got.Runtime)
	}
	recs, err := runstore.Read(e.RunRecord)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Time != e.Timestamp || recs[0].Report.Runtime == nil {
		t.Fatalf("registry holds %+v", recs)
	}
	want := "  perf report: " + e.PerfReport + "\n  run record: " + e.RunRecord + " (run " + recs[0].ID + ")\n"
	if out.String() != want {
		t.Errorf("announced %q, want %q", out.String(), want)
	}

	// With neither flag there is nothing to do, and Wanted says so.
	quiet := Emitter{Out: &out, Started: time.Now()}
	out.Reset()
	if quiet.Wanted() {
		t.Error("Wanted with neither flag set")
	}
	if err := quiet.Emit(telemetry.NewReport("test")); err != nil || out.Len() != 0 {
		t.Errorf("Emit with neither flag: err %v, printed %q", err, out.String())
	}
	// A write failure is the caller's error to report.
	bad := Emitter{PerfReport: filepath.Join(e.RunRecord, "under-a-file.json"), Out: &out, Started: time.Now()}
	if err := bad.Emit(telemetry.NewReport("test")); err == nil || !strings.Contains(err.Error(), "writing perf report") {
		t.Errorf("Emit into an unwritable path: %v", err)
	}
}

// TestRunLifecycle pins what Start, Watch, Debug and Close hold open:
// the debug endpoint announces itself and serves the run registry named
// by -run-record until Close, a dying run's partial report is stamped
// and written with a note in the crash file, and with no flag set
// nothing starts.
func TestRunLifecycle(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	r := Run{DebugAddr: "127.0.0.1:0", SoftDeadline: time.Hour, CrashDump: filepath.Join(dir, "crash.txt")}
	r.PerfReport, r.RunRecord = filepath.Join(dir, "partial.json"), filepath.Join(dir, "runs.jsonl")
	r.Start(&out, io.Discard)
	if r.Workers < 1 || r.Started.IsZero() {
		t.Errorf("Start left workers %d, started %v", r.Workers, r.Started)
	}
	r.Watch(func() *telemetry.Report { return telemetry.NewReport("never asked for") })
	if err := r.Debug(telemetry.DebugSource{}, "a, b"); err != nil {
		t.Fatal(err)
	}
	if len(r.stop) != 2 {
		t.Errorf("%d things held open, want the watchdog and the endpoint", len(r.stop))
	}
	line := out.String()
	if !strings.HasPrefix(line, "debug endpoint: http://127.0.0.1:") || !strings.HasSuffix(line, "/ (a, b)\n") {
		t.Fatalf("announced %q", line)
	}
	url := strings.TrimSuffix(strings.TrimPrefix(line, "debug endpoint: "), " (a, b)\n")
	if err := runstore.Append(r.RunRecord, runstore.NewRecord(telemetry.NewReport("x"), "abc", "2026-08-06T00:00:00Z")); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(url + "runs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/runs = %d, want the -run-record registry served", resp.StatusCode)
	}

	var crash bytes.Buffer
	rep := telemetry.NewReport("dying")
	rep.Config["partial"] = "true"
	r.writePartial(&crash, rep)
	if got := crash.String(); got != "\npartial perf report written to "+r.PerfReport+"\n" {
		t.Errorf("crash file note %q", got)
	}
	if got, err := telemetry.ReadReport(r.PerfReport); err != nil || got.Runtime == nil || got.Config["partial"] != "true" {
		t.Errorf("partial report: %+v, %v", got, err)
	}

	r.Close()
	if _, err := http.Get(url + "runs"); err == nil {
		t.Error("debug endpoint still answers after Close")
	}

	var idle Run
	idle.Start(&out, io.Discard)
	idle.Watch(nil)
	if err := idle.Debug(telemetry.DebugSource{}, ""); err != nil || len(idle.stop) != 0 {
		t.Errorf("a run with no flags set holds %d things open (err %v)", len(idle.stop), err)
	}
}
