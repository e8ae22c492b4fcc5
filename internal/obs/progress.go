package obs

import (
	"fmt"
	"io"
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Phase is a named, process-global progress tracker for one kind of
// long-running work: the flowsim event loop, the render scanline loop,
// a bench sweep, MPI-IO staging. Producers Start a session with the
// item count they are about to process, Add items as they complete,
// and End when done; the heartbeat, /metrics gauges, and flight
// records read the live done/total/rate/ETA view.
//
// Sessions nest and overlap: concurrent producers of the same phase
// (one RenderBlock per rank, say) each Start/End their own session,
// totals accumulate, and the counters reset only when the first
// session of a new burst begins. All methods are safe on a nil
// receiver and allocate nothing — Add is one atomic add, the contract
// that lets hot loops tick unconditionally, and Start and End, which
// record a burst's edges in the flight ring, take a mutex but no
// memory.
type Phase struct {
	name     string
	startMsg string // the flight ring's text for a burst's start

	// mu orders Start and End, so that the first session of a burst
	// has reset the counters before an overlapping session adds its
	// total. Add and the snapshots read the atomics without it.
	mu          sync.Mutex
	sessions    atomic.Int32
	done, total atomic.Int64
	startNS     atomic.Int64
}

var (
	phaseMu  sync.Mutex
	phaseTab = map[string]*Phase{}
)

// GetPhase returns the process-global phase with the given name,
// creating it on first use. Callers cache the handle in a package
// variable; the lookup itself is not a hot path.
func GetPhase(name string) *Phase {
	phaseMu.Lock()
	defer phaseMu.Unlock()
	p, ok := phaseTab[name]
	if !ok {
		p = &Phase{name: name, startMsg: name + " start"}
		phaseTab[name] = p
	}
	return p
}

// Start opens a session expecting total more items (0 when unknown).
// The first session of a burst resets the counters and stamps the
// start time; overlapping sessions accumulate their totals.
func (p *Phase) Start(total int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sessions.Load() == 0 {
		p.done.Store(0)
		p.total.Store(0)
		p.startNS.Store(time.Now().UnixNano())
		FlightRing.Record("phase", p.startMsg)
	}
	if total > 0 {
		p.total.Add(total)
	}
	p.sessions.Add(1)
}

// Add ticks n completed items. One atomic add, zero allocation,
// nil-safe: hot loops call it unconditionally.
func (p *Phase) Add(n int64) {
	if p == nil {
		return
	}
	p.done.Add(n)
}

// End closes a session. When the last overlapping session ends, the
// phase's closing summary lands in the flight ring.
func (p *Phase) End() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sessions.Add(-1) == 0 {
		now := time.Now()
		FlightRing.recordEnd(now, p.SnapshotAt(now))
	}
}

// PhaseStat is the live view of one phase at a point in time.
type PhaseStat struct {
	Name    string
	Active  bool
	Done    int64
	Total   int64 // 0 when unknown
	Elapsed time.Duration
	Rate    float64       // items per second since the burst started
	ETA     time.Duration // -1 when unknowable (no total or no rate yet)
}

// SnapshotAt computes the phase's progress as of now. Passing an
// explicit clock keeps ETA math testable: with items arriving at a
// constant rate the ETA is non-increasing.
func (p *Phase) SnapshotAt(now time.Time) PhaseStat {
	st := PhaseStat{
		Name:   p.name,
		Active: p.sessions.Load() > 0,
		Done:   p.done.Load(),
		Total:  p.total.Load(),
		ETA:    -1,
	}
	start := p.startNS.Load()
	if start == 0 {
		return st
	}
	if el := now.Sub(time.Unix(0, start)); el > 0 {
		st.Elapsed = el
	}
	if st.Elapsed > 0 && st.Done > 0 {
		st.Rate = float64(st.Done) / st.Elapsed.Seconds()
	}
	if st.Total > 0 && st.Done >= st.Total {
		st.ETA = 0
	} else if st.Total > 0 && st.Rate > 0 {
		st.ETA = time.Duration(float64(st.Total-st.Done) / st.Rate * float64(time.Second))
	}
	return st
}

// String renders the stat as one compact human line: the heartbeat's
// flight-ring entry, and the summary a burst's end shows there.
func (st PhaseStat) String() string {
	b := make([]byte, 0, 96)
	b = append(b, st.Name...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, st.Done, 10)
	if st.Total > 0 {
		b = append(b, '/')
		b = strconv.AppendInt(b, st.Total, 10)
		b = append(b, " ("...)
		b = strconv.AppendFloat(b, 100*float64(st.Done)/float64(st.Total), 'f', 1, 64)
		b = append(b, "%)"...)
	}
	b = append(b, " rate="...)
	b = strconv.AppendFloat(b, st.Rate, 'g', 3, 64)
	b = append(b, "/s"...)
	if st.ETA >= 0 {
		b = append(b, " eta="...)
		b = append(b, st.ETA.Round(time.Second).String()...)
	}
	return string(b)
}

// Phases returns a snapshot of every known phase, sorted by name.
func Phases() []PhaseStat {
	now := time.Now()
	phaseMu.Lock()
	ps := make([]*Phase, 0, len(phaseTab))
	for _, p := range phaseTab {
		ps = append(ps, p)
	}
	phaseMu.Unlock()
	out := make([]PhaseStat, len(ps))
	for i, p := range ps {
		out[i] = p.SnapshotAt(now)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writePhaseMetrics mirrors every phase's progress into Prometheus
// gauges with a phase label, appended after the Default registry by
// WriteMetricsTo.
func writePhaseMetrics(w io.Writer) error {
	stats := Phases()
	if len(stats) == 0 {
		return nil
	}
	type gauge struct {
		name, help string
		value      func(PhaseStat) (float64, bool)
	}
	gauges := []gauge{
		{"bgpvr_progress_active", "Whether the named phase has an open session.",
			func(st PhaseStat) (float64, bool) {
				if st.Active {
					return 1, true
				}
				return 0, true
			}},
		{"bgpvr_progress_done", "Items completed in the named phase's current burst.",
			func(st PhaseStat) (float64, bool) { return float64(st.Done), true }},
		{"bgpvr_progress_eta_seconds", "Estimated seconds to completion (absent when unknowable).",
			func(st PhaseStat) (float64, bool) { return st.ETA.Seconds(), st.ETA >= 0 }},
		{"bgpvr_progress_rate", "Items per second since the burst started.",
			func(st PhaseStat) (float64, bool) { return st.Rate, true }},
		{"bgpvr_progress_total", "Expected items in the named phase's current burst (0 when unknown).",
			func(st PhaseStat) (float64, bool) { return float64(st.Total), true }},
	}
	for _, g := range gauges {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", g.name, g.help, g.name); err != nil {
			return err
		}
		for _, st := range stats {
			v, ok := g.value(st)
			if !ok {
				continue
			}
			if err := writeSample(w, Sample{Name: g.name, Labels: `phase="` + st.Name + `"`, Value: v}); err != nil {
				return err
			}
		}
	}
	return nil
}

// Heartbeat periodically logs one structured line per active phase.
type Heartbeat struct {
	stop chan struct{}
	done chan struct{}
}

// DefaultHeartbeatInterval is the -progress-interval default.
const DefaultHeartbeatInterval = 10 * time.Second

// StartHeartbeat begins emitting, every interval, one log line per
// active phase — done/total, percent, rate, ETA — and mirrors the same
// line into the flight ring (so a killed run's crash file shows the
// progress trajectory up to the kill). Stop it when the run finishes;
// Stop on a nil heartbeat is a no-op, so CLIs can arm it
// conditionally and defer Stop unconditionally.
func StartHeartbeat(log *slog.Logger, interval time.Duration) *Heartbeat {
	if interval <= 0 {
		interval = DefaultHeartbeatInterval
	}
	if log == nil {
		log = slog.Default()
	}
	hb := &Heartbeat{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(hb.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hb.stop:
				return
			case <-t.C:
				Beat(log)
			}
		}
	}()
	return hb
}

// Beat emits one heartbeat now: a log line and a flight-ring event per
// active phase. Exported so tests (and signal paths) can trigger a
// beat without waiting out the ticker.
func Beat(log *slog.Logger) {
	for _, st := range Phases() {
		if !st.Active {
			continue
		}
		attrs := []any{
			"phase", st.Name,
			"done", st.Done,
		}
		if st.Total > 0 {
			attrs = append(attrs, "total", st.Total,
				"pct", fmt.Sprintf("%.1f", 100*float64(st.Done)/float64(st.Total)))
		}
		attrs = append(attrs, "rate", fmt.Sprintf("%.3g/s", st.Rate))
		if st.ETA >= 0 {
			attrs = append(attrs, "eta", st.ETA.Round(time.Second).String())
		}
		log.Info("progress", attrs...)
		FlightRing.Record("heartbeat", st.String())
	}
}

// Stop halts the heartbeat goroutine and waits for it to exit.
func (h *Heartbeat) Stop() {
	if h == nil {
		return
	}
	close(h.stop)
	<-h.done
}
