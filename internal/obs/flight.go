package obs

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Event is one flight-ring entry.
type Event struct {
	Time time.Time
	Kind string // "phase", "heartbeat", "note", "watchdog"
	Msg  string

	// end, when ended is set, is the closing summary of a phase burst,
	// kept as a value and formatted into Msg only when the ring is read,
	// so that ending a burst allocates nothing.
	end   PhaseStat
	ended bool
}

// Ring is a fixed-size ring buffer of recent events. Recording is
// cheap (one mutexed slot write, no allocation for a phase's edges)
// but not hot-path cheap: producers are phase transitions, heartbeats,
// and CLI notes — a few per frame — never per-item ticks.
type Ring struct {
	mu   sync.Mutex
	buf  []Event
	next int
	full bool
}

// NewRing returns a ring keeping the last n events.
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]Event, n)}
}

// FlightRing is the process-global ring the watchdog dumps.
var FlightRing = NewRing(256)

// Record appends an event, evicting the oldest when full.
func (r *Ring) Record(kind, msg string) {
	r.record(Event{Time: time.Now(), Kind: kind, Msg: msg})
}

// recordEnd appends the closing summary of a phase burst.
func (r *Ring) recordEnd(now time.Time, st PhaseStat) {
	r.record(Event{Time: now, Kind: "phase", end: st, ended: true})
}

func (r *Ring) record(e Event) {
	r.mu.Lock()
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	var out []Event
	if !r.full {
		out = append(out, r.buf[:r.next]...)
	} else {
		out = make([]Event, 0, len(r.buf))
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	}
	r.mu.Unlock()
	for i := range out {
		if e := &out[i]; e.ended {
			e.Msg = e.end.Name + " end: " + e.end.String()
		}
	}
	return out
}

// Note records a free-form note event in the flight ring — run
// configuration, milestones, anything worth seeing in a post-mortem.
func Note(format string, args ...any) {
	FlightRing.Record("note", fmt.Sprintf(format, args...))
}

// shuttingDown marks an orderly, operator-initiated shutdown in
// progress (BeginShutdown). The watchdog consults it so a drain's
// SIGTERM is noted instead of treated as a crash.
var shuttingDown atomic.Bool

// BeginShutdown marks the process as shutting down on purpose: the
// fact lands in the flight ring, and any armed watchdog stops treating
// termination signals as crashes (they are expected while a server
// drains). Call it from the signal handler that starts a graceful
// drain. It is idempotent.
func BeginShutdown(reason string) {
	if shuttingDown.CompareAndSwap(false, true) {
		FlightRing.Record("note", "shutdown in progress: "+reason)
	}
}

// ShuttingDown reports whether BeginShutdown has been called.
func ShuttingDown() bool { return shuttingDown.Load() }

// resetShutdown reverts BeginShutdown, for tests.
func resetShutdown() { shuttingDown.Store(false) }

// WriteFlightRecord writes the full post-mortem view: the ring's
// recent events, every phase's progress, the live metrics snapshot,
// and all goroutine stacks. It is what the watchdog dumps to the crash
// file and is safe to call at any time (all sources are snapshots).
func WriteFlightRecord(w io.Writer, reason string) {
	fmt.Fprintf(w, "bgpvr flight record: %s\nwritten: %s\n", reason,
		time.Now().Format(time.RFC3339Nano))
	if ShuttingDown() {
		fmt.Fprintln(w, "note: shutdown in progress — this record reflects an orderly drain, not a crash")
	}

	fmt.Fprintf(w, "\n== recent events (oldest first) ==\n")
	evs := FlightRing.Events()
	if len(evs) == 0 {
		fmt.Fprintln(w, "(none)")
	}
	for _, e := range evs {
		fmt.Fprintf(w, "%s %-9s %s\n", e.Time.Format("15:04:05.000"), e.Kind, e.Msg)
	}

	fmt.Fprintf(w, "\n== phases ==\n")
	stats := Phases()
	if len(stats) == 0 {
		fmt.Fprintln(w, "(none)")
	}
	for _, st := range stats {
		state := "idle"
		if st.Active {
			state = "ACTIVE"
		}
		fmt.Fprintf(w, "%-7s %s\n", state, st.String())
	}

	fmt.Fprintf(w, "\n== metrics snapshot ==\n")
	if err := WriteMetricsTo(w); err != nil {
		fmt.Fprintf(w, "(metrics snapshot failed: %v)\n", err)
	}

	fmt.Fprintf(w, "\n== goroutine stacks ==\n")
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	w.Write(buf)
}

// WatchdogConfig configures StartWatchdog.
type WatchdogConfig struct {
	// Path is the crash-file destination; parent directories are
	// created. Empty means "bgpvr-crash.txt" in the working directory.
	Path string
	// SoftDeadline, when positive, triggers a dump-and-exit that long
	// after arming — set it just under an external kill budget (CI's
	// timeout) so the run leaves a post-mortem before being SIGKILLed.
	SoftDeadline time.Duration
	// Extra, when non-nil, runs after the flight record is written,
	// with the crash file as its writer: the hook for best-effort
	// partial artifacts (a partial perf report). A panic in Extra is
	// recovered — the flight record must survive a half-built run.
	Extra func(w io.Writer)
	// ExitCode is the status the process exits with after dumping
	// (default 2).
	ExitCode int
	// Exit overrides os.Exit, for tests. The triggered watchdog calls
	// it exactly once and then stands down.
	Exit func(code int)
	// Signals overrides which signals trigger a dump (default SIGQUIT
	// and SIGTERM). A server that owns SIGTERM for graceful draining
	// arms the watchdog with SIGQUIT only, so a drain is never
	// mistaken for a crash.
	Signals []os.Signal
}

// Watchdog dumps a flight record when the process receives SIGQUIT or
// SIGTERM, or when a soft deadline elapses — then exits. Arm it at the
// start of a long run and Stop it on clean completion.
type Watchdog struct {
	cfg  WatchdogConfig
	sig  chan os.Signal
	stop chan struct{}
	once sync.Once
}

// StartWatchdog arms the watchdog: SIGQUIT/SIGTERM are intercepted for
// the dump (replacing their default terminate behavior), and the soft
// deadline timer starts now when configured.
func StartWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.Path == "" {
		cfg.Path = "bgpvr-crash.txt"
	}
	if cfg.ExitCode == 0 {
		cfg.ExitCode = 2
	}
	if cfg.Exit == nil {
		cfg.Exit = os.Exit
	}
	w := &Watchdog{cfg: cfg, sig: make(chan os.Signal, 2), stop: make(chan struct{})}
	sigs := cfg.Signals
	if len(sigs) == 0 {
		sigs = []os.Signal{syscall.SIGQUIT, syscall.SIGTERM}
	}
	signal.Notify(w.sig, sigs...)
	var deadline <-chan time.Time
	if cfg.SoftDeadline > 0 {
		t := time.NewTimer(cfg.SoftDeadline)
		deadline = t.C
	}
	go func() {
		for {
			select {
			case <-w.stop:
				return
			case s := <-w.sig:
				if ShuttingDown() {
					// An orderly drain is in progress: the signal is the
					// shutdown, not a crash. Note it and keep watching (the
					// soft deadline still guards a drain that hangs).
					FlightRing.Record("watchdog",
						fmt.Sprintf("signal %v during shutdown in progress (no dump)", s))
					continue
				}
				w.trigger(fmt.Sprintf("signal %v", s))
				return
			case <-deadline:
				w.trigger(fmt.Sprintf("soft deadline %v elapsed", w.cfg.SoftDeadline))
				return
			}
		}
	}()
	return w
}

// Stop disarms the watchdog after a clean run: signals revert to their
// default handling and the soft deadline is abandoned.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	w.once.Do(func() {
		signal.Stop(w.sig)
		close(w.stop)
	})
}

// trigger writes the crash file and exits. The dump goes to the
// configured path (parents created), falling back to stderr when the
// file cannot be opened — a kill should never die silently.
func (w *Watchdog) trigger(reason string) {
	w.once.Do(func() { signal.Stop(w.sig) })
	FlightRing.Record("watchdog", reason)
	out := io.Writer(os.Stderr)
	var f *os.File
	if dir := filepath.Dir(w.cfg.Path); dir != "" && dir != "." {
		_ = os.MkdirAll(dir, 0o755)
	}
	f, err := os.Create(w.cfg.Path)
	if err == nil {
		out = f
	} else {
		fmt.Fprintf(os.Stderr, "obs: watchdog cannot create %s (%v); dumping to stderr\n", w.cfg.Path, err)
	}
	WriteFlightRecord(out, reason)
	if w.cfg.Extra != nil {
		func() {
			defer func() {
				if r := recover(); r != nil {
					fmt.Fprintf(out, "\n(extra crash payload panicked: %v)\n", r)
				}
			}()
			w.cfg.Extra(out)
		}()
	}
	if f != nil {
		f.Close()
		fmt.Fprintf(os.Stderr, "obs: watchdog wrote flight record to %s (%s)\n", w.cfg.Path, reason)
	}
	w.cfg.Exit(w.cfg.ExitCode)
}
