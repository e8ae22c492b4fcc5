package tracestore

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Reasons a trace is retained, in decision precedence order.
const (
	ReasonError = "error" // non-2xx outcome: 4xx, 429, 503, deadline partials
	ReasonSLO   = "slo"   // latency breached the configured SLO
	ReasonP90   = "p90"   // latency exceeded the endpoint's rolling p90
	ReasonRand  = "rand"  // the probabilistic 1-in-N baseline keep
)

// SamplerConfig configures tail-based sampling. Zero values take the
// documented defaults.
type SamplerConfig struct {
	// SLO, when positive, marks any slower request as an SLO breach —
	// always retained (and, in the render service, bundled into a
	// diagnostic file).
	SLO time.Duration
	// RandN keeps 1 in RandN of otherwise-unremarkable requests
	// (default 16). RandN = 1 keeps everything; negative disables the
	// baseline keep entirely.
	RandN int
	// Seed seeds the probabilistic source so tests are deterministic
	// (default 1).
	Seed int64
	// Window is the per-endpoint rolling window length over which the
	// p90 is computed (default 128 most recent requests).
	Window int
	// MinCount is how many observations an endpoint's window needs
	// before the p90 rule fires (default 20) — early traffic would
	// otherwise all read as outliers.
	MinCount int
}

// Sampler makes tail-based keep/drop decisions: all errors, all SLO
// breaches, everything over the endpoint's rolling p90, and 1-in-N of
// the rest. Decisions also feed the rolling window, so the p90 tracks
// the live latency distribution per endpoint.
type Sampler struct {
	mu      sync.Mutex
	cfg     SamplerConfig
	rnd     *rand.Rand
	windows map[string]*window
}

// window is one endpoint's ring of recent latencies.
type window struct {
	buf  []time.Duration
	next int
	n    int // filled entries, <= len(buf)
}

func (w *window) add(d time.Duration) {
	w.buf[w.next] = d
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
}

// p90 is the nearest-rank 90th percentile of the window's contents.
func (w *window) p90() time.Duration {
	tmp := make([]time.Duration, w.n)
	copy(tmp, w.buf[:w.n])
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	rank := (w.n*9 + 9) / 10 // ceil(0.9*n)
	if rank < 1 {
		rank = 1
	}
	return tmp[rank-1]
}

// NewSampler builds a sampler from cfg.
func NewSampler(cfg SamplerConfig) *Sampler {
	if cfg.RandN == 0 {
		cfg.RandN = 16
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Window <= 0 {
		cfg.Window = 128
	}
	if cfg.MinCount <= 0 {
		cfg.MinCount = 20
	}
	return &Sampler{
		cfg:     cfg,
		rnd:     rand.New(rand.NewSource(cfg.Seed)),
		windows: map[string]*window{},
	}
}

// Decide judges one completed request and returns whether its trace
// should be retained and why. Precedence: errors, then SLO breaches,
// then rolling-p90 outliers, then the 1-in-N baseline. Every call
// feeds the endpoint's rolling window regardless of outcome, and the
// p90 comparison runs against the window *before* this observation —
// a request cannot dilute the threshold it is judged by.
func (s *Sampler) Decide(endpoint string, status int, dur time.Duration) (keep bool, reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.windows[endpoint]
	if !ok {
		w = &window{buf: make([]time.Duration, s.cfg.Window)}
		s.windows[endpoint] = w
	}
	overP90 := w.n >= s.cfg.MinCount && dur > w.p90()
	w.add(dur)

	switch {
	case status >= 400:
		return true, ReasonError
	case s.cfg.SLO > 0 && dur > s.cfg.SLO:
		return true, ReasonSLO
	case overP90:
		return true, ReasonP90
	case s.cfg.RandN == 1 || (s.cfg.RandN > 1 && s.rnd.Intn(s.cfg.RandN) == 0):
		return true, ReasonRand
	}
	return false, ""
}
