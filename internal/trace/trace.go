// Package trace is the end-to-end instrumentation substrate of the
// pipeline: per-rank structured spans (Begin/End with a phase tag),
// monotonic counters (messages, bytes, accesses, samples), and a
// registry that aggregates both across goroutine ranks into the
// per-phase breakdowns the paper reports (Figs 5-7).
//
// Two exporters consume a Tracer: WriteChrome emits Chrome
// trace_event JSON (one track per rank, loadable in chrome://tracing
// or Perfetto), and Breakdown produces the plain-text per-phase
// percentage table.
//
// # Nil safety and overhead
//
// Every method on *Tracer, *Rank, and Span is a no-op on the nil
// receiver, and a nil *Rank allocates nothing: instrumented hot paths
// carry a *Rank obtained from Comm.Trace() (nil when no tracer is
// attached) and pay only a predictable-branch nil check per event
// when tracing is off. Span names must therefore be constant strings;
// anything dynamic would allocate before the nil check.
//
// # Real and virtual time
//
// New starts a wall-clock tracer for real-mode runs; NewVirtual
// creates a tracer whose events carry explicit timestamps, which is
// how model mode lays out the virtual timeline of a 32K-core frame
// (Emit places spans at modeled seconds).
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Phase tags a span with the pipeline stage it belongs to.
type Phase uint8

// The pipeline phases. PhaseComm tags communication spans, which nest
// inside the stage phases and are reported separately from them.
const (
	PhaseIO Phase = iota
	PhaseRender
	PhaseComposite
	PhaseComm
	PhaseOther
	NumPhases // count sentinel, not a phase
)

func (p Phase) String() string {
	switch p {
	case PhaseIO:
		return "io"
	case PhaseRender:
		return "render"
	case PhaseComposite:
		return "composite"
	case PhaseComm:
		return "comm"
	case PhaseOther:
		return "other"
	}
	return "unknown"
}

// Counter identifies one monotonic metric.
type Counter uint8

// The counters.
const (
	CounterMessages Counter = iota
	CounterBytesSent
	CounterAccesses
	CounterBytesRead
	CounterSamples
	NumCounters // count sentinel, not a counter
)

func (c Counter) String() string {
	switch c {
	case CounterMessages:
		return "messages"
	case CounterBytesSent:
		return "bytes sent"
	case CounterAccesses:
		return "accesses"
	case CounterBytesRead:
		return "bytes read"
	case CounterSamples:
		return "samples"
	}
	return "unknown"
}

// Event is one completed span. Times are seconds since the tracer's
// epoch (wall-clock for New, modeled for NewVirtual).
type Event struct {
	Name  string
	Phase Phase
	Rank  int
	Start float64
	Dur   float64
	// Nested marks a span recorded while another span of the same
	// phase was open on the same rank; aggregation counts only
	// non-nested spans so a phase's time is not double-counted.
	Nested bool
}

// Tracer is the per-run registry: it owns one Rank handle per
// goroutine rank and the shared epoch. The nil *Tracer is a valid
// no-op tracer.
type Tracer struct {
	epoch   time.Time
	virtual bool
	ranks   []*Rank
}

// New creates a wall-clock tracer for nranks ranks. The epoch is the
// call time.
func New(nranks int) *Tracer {
	t := &Tracer{epoch: time.Now()}
	t.ranks = make([]*Rank, nranks)
	for i := range t.ranks {
		t.ranks[i] = &Rank{t: t, rank: i}
	}
	return t
}

// NewVirtual creates a tracer for explicit (modeled) timestamps: Begin
// records zero start times, so virtual users emit via Rank.Emit.
func NewVirtual(nranks int) *Tracer {
	t := New(nranks)
	t.virtual = true
	return t
}

// Rank returns rank i's handle, or nil when the tracer is nil or i is
// out of range — safe to call and use unconditionally.
func (t *Tracer) Rank(i int) *Rank {
	if t == nil || i < 0 || i >= len(t.ranks) {
		return nil
	}
	return t.ranks[i]
}

// Size returns the number of ranks (0 for the nil tracer).
func (t *Tracer) Size() int {
	if t == nil {
		return 0
	}
	return len(t.ranks)
}

func (t *Tracer) now() float64 {
	if t.virtual {
		return 0
	}
	return time.Since(t.epoch).Seconds()
}

// Now returns seconds since the tracer's epoch — the clock spans are
// stamped with — so sibling recorders (dependency edges, I/O logs) can
// produce timestamps that line up with the trace. It returns 0 for the
// nil and virtual tracers.
func (t *Tracer) Now() float64 {
	if t == nil {
		return 0
	}
	return t.now()
}

// Events returns every recorded event, ordered by rank, then start
// time, then insertion order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for _, r := range t.ranks {
		r.mu.Lock()
		out = append(out, r.events...)
		r.mu.Unlock()
	}
	// Stable so same-timestamp events keep their insertion order.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Start < out[j].Start
	})
	return out
}

// Len returns how many events have been recorded, over every rank,
// without copying or sorting them as Events does.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, r := range t.ranks {
		r.mu.Lock()
		n += len(r.events)
		r.mu.Unlock()
	}
	return n
}

// Totals returns each counter summed across ranks.
func (t *Tracer) Totals() [NumCounters]int64 {
	var tot [NumCounters]int64
	if t == nil {
		return tot
	}
	for _, r := range t.ranks {
		for c := range tot {
			tot[c] += atomic.LoadInt64(&r.counters[c])
		}
	}
	return tot
}

// Rank records events and counters for one goroutine rank. The nil
// *Rank is a valid no-op handle; all methods are safe for concurrent
// use.
type Rank struct {
	t    *Tracer
	rank int

	mu     sync.Mutex
	events []Event
	depth  [NumPhases]int

	counters [NumCounters]int64 // atomic
}

// Span is an open interval created by Begin and closed by End. The
// zero Span (from a nil *Rank) is a valid no-op.
type Span struct {
	r      *Rank
	name   string
	phase  Phase
	start  float64
	nested bool
}

// Begin opens a span. name should be a constant string so the no-op
// path allocates nothing.
func (r *Rank) Begin(phase Phase, name string) Span {
	if r == nil {
		return Span{}
	}
	r.mu.Lock()
	nested := r.depth[phase] > 0
	r.depth[phase]++
	r.mu.Unlock()
	return Span{r: r, name: name, phase: phase, start: r.t.now(), nested: nested}
}

// End closes the span and records its event.
func (s Span) End() {
	if s.r == nil {
		return
	}
	end := s.r.t.now()
	s.r.mu.Lock()
	s.r.depth[s.phase]--
	s.r.events = append(s.r.events, Event{
		Name: s.name, Phase: s.phase, Rank: s.r.rank,
		Start: s.start, Dur: end - s.start, Nested: s.nested,
	})
	s.r.mu.Unlock()
}

// Emit records a completed span with explicit timestamps in seconds —
// the virtual-time path used by model mode. Emitted spans count as
// top-level for aggregation; use EmitNested for sub-spans that lie
// inside an emitted span of the same phase.
func (r *Rank) Emit(phase Phase, name string, start, dur float64) {
	r.emit(phase, name, start, dur, false)
}

// EmitNested records a completed span excluded from the phase
// aggregation (it details a containing span of the same phase).
func (r *Rank) EmitNested(phase Phase, name string, start, dur float64) {
	r.emit(phase, name, start, dur, true)
}

func (r *Rank) emit(phase Phase, name string, start, dur float64, nested bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = append(r.events, Event{
		Name: name, Phase: phase, Rank: r.rank, Start: start, Dur: dur, Nested: nested,
	})
	r.mu.Unlock()
}

// Add increments a counter by n.
func (r *Rank) Add(c Counter, n int64) {
	if r == nil {
		return
	}
	atomic.AddInt64(&r.counters[c], n)
}
