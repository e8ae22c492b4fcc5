package serve

import (
	"slices"
	"sync"
	"time"

	"bgpvr/internal/trace"
)

// Reasons a /render trace is retained, in decision precedence order.
const (
	reasonError = "error" // non-2xx outcome: 4xx, 429, 503, deadline partials
	reasonSLO   = "slo"   // latency breached the configured SLO
	reasonP90   = "p90"   // latency exceeded the rolling p90
	reasonRand  = "rand"  // the 1-in-N baseline keep
)

const (
	// maxTraces caps the ring's entries, however small they are.
	maxTraces = 64
	// samplerWindow is how many recent latencies the rolling p90 is
	// taken over.
	samplerWindow = 128
	// samplerMinCount is how many latencies the window needs before the
	// p90 rule fires: early traffic would otherwise all read as
	// outliers.
	samplerMinCount = 20
)

// keptTrace is one retained /render trace: identity, outcome, and the
// request's tracer (span source for both the JSON span tree and the
// Chrome trace_event export).
type keptTrace struct {
	id     string
	status int           // final HTTP status code
	dur    time.Duration // request latency the sampler judged
	reason string        // why it was kept
	start  time.Time     // request arrival (wall clock)
	tracer *trace.Tracer
	size   int64 // estimated retained bytes, fixed when added
}

// estimateSize approximates a trace's resident footprint: a fixed
// per-entry overhead plus per-event cost (the Event struct and its
// name header). It only has to be proportional and stable — the byte
// budget is a retention dial, not an allocator accounting.
func estimateSize(t *keptTrace) int64 {
	const entryOverhead = 512
	const perEvent = 72 // Event struct + slice slot
	size := int64(entryOverhead + len(t.id) + len(renderEndpoint) + len(t.reason))
	for _, e := range t.tracer.Events() {
		size += perEvent + int64(len(e.Name))
	}
	return size
}

// traceRing is the bounded store of retained traces: a byte budget
// (spans are retained verbatim, so one 64-rank trace can outweigh a
// hundred tiny ones) and at most maxTraces entries, the oldest evicted
// first. It is touched once per kept request and per /traces query,
// never on a hot path, so a scan of its few entries is enough.
type traceRing struct {
	mu       sync.Mutex
	budget   int64
	traces   []*keptTrace // arrival order, oldest first
	bytes    int64
	evicted  int64
	byReason map[string]int64
}

func newTraceRing(budget int64) *traceRing {
	return &traceRing{budget: budget, byReason: map[string]int64{}}
}

// add retains t, evicting as needed: a duplicate ID replaces the old
// entry, and the oldest traces leave until t fits the entry cap and
// the byte budget. A trace larger than the whole budget is dropped
// outright (counted as its own eviction).
func (r *traceRing) add(t *keptTrace) {
	t.size = estimateSize(t)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byReason[t.reason]++
	if t.size > r.budget {
		r.evicted++
		return
	}
	if i := r.index(t.id); i >= 0 {
		r.remove(i)
	}
	for len(r.traces) > 0 && (len(r.traces) >= maxTraces || r.bytes+t.size > r.budget) {
		r.remove(0)
		r.evicted++
	}
	r.traces = append(r.traces, t)
	r.bytes += t.size
}

func (r *traceRing) index(id string) int {
	return slices.IndexFunc(r.traces, func(t *keptTrace) bool { return t.id == id })
}

func (r *traceRing) remove(i int) {
	r.bytes -= r.traces[i].size
	r.traces = slices.Delete(r.traces, i, i+1)
}

// get returns the retained trace with the given ID.
func (r *traceRing) get(id string) (*keptTrace, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i := r.index(id); i >= 0 {
		return r.traces[i], true
	}
	return nil, false
}

// list returns the retained traces, newest first.
func (r *traceRing) list() []*keptTrace {
	r.mu.Lock()
	out := slices.Clone(r.traces)
	r.mu.Unlock()
	slices.Reverse(out)
	return out
}

// stats returns the occupancy snapshot.
func (r *traceRing) stats() TraceStoreStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := TraceStoreStats{
		Entries:     len(r.traces),
		Bytes:       r.bytes,
		BudgetBytes: r.budget,
		Evictions:   r.evicted,
	}
	if len(r.byReason) > 0 {
		st.ByReason = make(map[string]int64, len(r.byReason))
		for reason, n := range r.byReason {
			st.ByReason[reason] = n
		}
	}
	return st
}

// tailSampler makes the keep-or-drop decision for a finished /render
// request, once its status and latency are known: all errors, all SLO
// breaches, everything over the rolling p90, and 1 in randN of the
// rest. Every decision feeds the rolling window, so the p90 tracks the
// live latency distribution.
type tailSampler struct {
	mu    sync.Mutex
	slo   time.Duration // 0: no SLO rule
	randN int           // 1 keeps everything, negative no baseline keep
	skip  int           // ordinary requests to drop before the next baseline keep

	window [samplerWindow]time.Duration // ring of recent latencies
	next   int
	n      int                          // filled entries, <= samplerWindow
	sorted [samplerWindow]time.Duration // p90's scratch
}

func newTailSampler(slo time.Duration, randN int) *tailSampler {
	return &tailSampler{slo: slo, randN: randN}
}

// decide judges one completed request and returns whether its trace
// should be retained and why. The p90 comparison runs against the
// window *before* this observation: a request cannot dilute the
// threshold it is judged by.
func (s *tailSampler) decide(status int, dur time.Duration) (keep bool, reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	overP90 := s.n >= samplerMinCount && dur > s.p90()
	s.window[s.next] = dur
	s.next = (s.next + 1) % samplerWindow
	s.n = min(s.n+1, samplerWindow)

	switch {
	case status >= 400:
		return true, reasonError
	case s.slo > 0 && dur > s.slo:
		return true, reasonSLO
	case overP90:
		return true, reasonP90
	case s.randN > 0 && s.skip == 0:
		// The baseline keeps the 1st ordinary request, the (randN+1)th,
		// and so on: a new service has one as soon as it has served.
		s.skip = s.randN - 1
		return true, reasonRand
	case s.randN > 0:
		s.skip--
	}
	return false, ""
}

// p90 is the nearest-rank 90th percentile of the window's contents.
func (s *tailSampler) p90() time.Duration {
	tmp := s.sorted[:s.n]
	copy(tmp, s.window[:s.n])
	slices.Sort(tmp)
	return tmp[(s.n*9+9)/10-1] // rank ceil(0.9 n)
}
