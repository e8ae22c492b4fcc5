package obs

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestRingWraparound pins eviction order: the ring keeps the newest n
// events, oldest first on read.
func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	if got := r.Events(); len(got) != 0 {
		t.Errorf("fresh ring has %d events", len(got))
	}
	for i := 0; i < 10; i++ {
		r.Record("note", fmt.Sprintf("e%d", i))
	}
	got := r.Events()
	if len(got) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(got))
	}
	for i, e := range got {
		if want := fmt.Sprintf("e%d", 6+i); e.Msg != want {
			t.Errorf("event %d = %q, want %q", i, e.Msg, want)
		}
	}
}

// TestWriteFlightRecord checks the post-mortem sections: ring events,
// phases, metrics snapshot, goroutine stacks.
func TestWriteFlightRecord(t *testing.T) {
	Note("flight-test note %d", 7)
	p := GetPhase("test-flight")
	p.Start(3)
	p.Add(1)
	defer p.End()
	c := Default.NewCounter("bgpvr_flight_test_total", "flight test")
	c.Add(9) // -count=2 reruns accumulate; assert the live value below

	var b strings.Builder
	WriteFlightRecord(&b, "unit test")
	out := b.String()
	for _, want := range []string{
		"bgpvr flight record: unit test",
		"flight-test note 7",
		"ACTIVE  test-flight 1/3",
		fmt.Sprintf("bgpvr_flight_test_total %d", c.Value()),
		"goroutine ",
		"TestWriteFlightRecord",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("flight record missing %q:\n%s", want, out)
		}
	}
}

// TestWatchdogSoftDeadline checks the deadline path end to end: crash
// file under a not-yet-existing directory, the Extra payload appended,
// the configured exit code.
func TestWatchdogSoftDeadline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deep", "nested", "crash.txt")
	exited := make(chan int, 1)
	w := StartWatchdog(WatchdogConfig{
		Path:         path,
		SoftDeadline: 10 * time.Millisecond,
		Extra:        func(w io.Writer) { fmt.Fprint(w, "\npartial-report-marker\n") },
		ExitCode:     7,
		Exit:         func(code int) { exited <- code },
	})
	defer w.Stop()
	select {
	case code := <-exited:
		if code != 7 {
			t.Errorf("exit code %d, want 7", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("soft deadline never fired")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("crash file (parents should have been created): %v", err)
	}
	out := string(b)
	for _, want := range []string{"soft deadline", "goroutine ", "partial-report-marker"} {
		if !strings.Contains(out, want) {
			t.Errorf("crash file missing %q", want)
		}
	}
}

// TestWatchdogSignal sends the process a real SIGTERM and checks the
// watchdog intercepts it, dumps, and "exits" through the override
// instead of killing the test binary.
func TestWatchdogSignal(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("no SIGTERM delivery on windows")
	}
	path := filepath.Join(t.TempDir(), "crash.txt")
	exited := make(chan int, 1)
	w := StartWatchdog(WatchdogConfig{
		Path: path,
		Exit: func(code int) { exited <- code },
	})
	defer w.Stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exited:
		if code != 2 {
			t.Errorf("exit code %d, want default 2", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM never reached the watchdog")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "signal terminated") && !strings.Contains(string(b), "signal ") {
		t.Errorf("crash file missing the signal reason:\n%s", b)
	}
}

// TestWatchdogStop checks a disarmed watchdog neither dumps nor exits.
func TestWatchdogStop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.txt")
	w := StartWatchdog(WatchdogConfig{
		Path:         path,
		SoftDeadline: 20 * time.Millisecond,
		Exit:         func(int) { t.Error("disarmed watchdog exited") },
	})
	w.Stop()
	w.Stop() // idempotent
	time.Sleep(60 * time.Millisecond)
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("disarmed watchdog wrote a crash file (stat err %v)", err)
	}
	var nilW *Watchdog
	nilW.Stop() // must not panic
}

// TestWatchdogShutdownInProgress pins the graceful-drain contract: a
// termination signal arriving after BeginShutdown is noted in the
// flight ring instead of dumping a crash record, and the watchdog
// keeps watching (the soft deadline still guards a hung drain).
func TestWatchdogShutdownInProgress(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("no SIGTERM delivery on windows")
	}
	defer resetShutdown()
	path := filepath.Join(t.TempDir(), "crash.txt")
	exited := make(chan int, 1)
	w := StartWatchdog(WatchdogConfig{
		Path: path,
		Exit: func(code int) { exited <- code },
	})
	defer w.Stop()

	BeginShutdown("test drain")
	if !ShuttingDown() {
		t.Fatal("ShuttingDown false after BeginShutdown")
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// The note must land in the ring; the watchdog must NOT exit.
	deadline := time.After(5 * time.Second)
	for {
		noted := false
		for _, e := range FlightRing.Events() {
			if e.Kind == "watchdog" && strings.Contains(e.Msg, "shutdown in progress") {
				noted = true
			}
		}
		if noted {
			break
		}
		select {
		case code := <-exited:
			t.Fatalf("watchdog exited (code %d) during an orderly shutdown", code)
		case <-deadline:
			t.Fatal("shutdown-in-progress note never reached the flight ring")
		case <-time.After(10 * time.Millisecond):
		}
	}
	select {
	case code := <-exited:
		t.Fatalf("watchdog exited (code %d) during an orderly shutdown", code)
	default:
	}
	if _, err := os.Stat(path); err == nil {
		t.Error("crash file written during an orderly shutdown")
	}

	// The flight record header flags the drain.
	var b strings.Builder
	WriteFlightRecord(&b, "test")
	if !strings.Contains(b.String(), "orderly drain") {
		t.Error("flight record header missing the shutdown-in-progress note")
	}
}

// TestWatchdogCustomSignals pins WatchdogConfig.Signals: a watchdog
// armed with SIGQUIT only ignores SIGTERM entirely (a serve-mode drain
// owns it).
func TestWatchdogCustomSignals(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("no signal delivery on windows")
	}
	path := filepath.Join(t.TempDir(), "crash.txt")
	exited := make(chan int, 1)
	w := StartWatchdog(WatchdogConfig{
		Path:    path,
		Exit:    func(code int) { exited <- code },
		Signals: []os.Signal{syscall.SIGQUIT},
	})
	defer w.Stop()
	// SIGTERM is not in the set — deliver it to a handler of our own so
	// the default terminate action doesn't kill the test binary.
	other := make(chan os.Signal, 1)
	signal.Notify(other, syscall.SIGTERM)
	defer signal.Stop(other)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-other
	select {
	case code := <-exited:
		t.Fatalf("SIGQUIT-only watchdog reacted to SIGTERM (exit %d)", code)
	case <-time.After(100 * time.Millisecond):
	}
}

// A burst's edges read in the flight record as "<phase> start" and
// "<phase> end: <summary>", the summary formatted from the PhaseStat
// the end kept, when the ring is read.
func TestFlightRecordPhaseEdges(t *testing.T) {
	r := NewRing(4)
	r.recordEnd(time.Now(), PhaseStat{Name: "pin", Done: 3, Total: 10, Rate: 1.5, ETA: 4666 * time.Millisecond})
	if evs := r.Events(); len(evs) != 1 || evs[0].Kind != "phase" ||
		evs[0].Msg != "pin end: pin 3/10 (30.0%) rate=1.5/s eta=5s" {
		t.Errorf("ring holds %+v", evs)
	}

	p := GetPhase("test-dump")
	p.Start(4)
	p.Add(4)
	p.End()
	var b strings.Builder
	WriteFlightRecord(&b, "unit test")
	out := b.String()
	for _, line := range []string{
		`\d\d:\d\d:\d\d\.\d{3} phase     test-dump start`,
		`\d\d:\d\d:\d\d\.\d{3} phase     test-dump end: test-dump 4/4 \(100\.0%\) rate=[0-9.e+]+/s eta=0s`,
		`idle    test-dump 4/4 \(100\.0%\) rate=[0-9.e+]+/s eta=0s`,
	} {
		if !regexp.MustCompile(`(?m)^` + line + `$`).MatchString(out) {
			t.Errorf("flight record has no line %q:\n%s", line, out)
		}
	}
}
