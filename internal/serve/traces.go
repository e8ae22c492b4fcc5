package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bgpvr/internal/obs"
	"bgpvr/internal/telemetry"
	"bgpvr/internal/trace"
)

// renderEndpoint is the endpoint whose requests are traced.
const renderEndpoint = "/render"

// judge runs the tail-based sampling decision for one completed
// /render request. It returns the verdict for the per-request perf
// report (nil when tracing is disabled), which counts the spans so far,
// and, when the trace is kept, the entry reply retains once the answer
// is written.
func (s *Server) judge(ctx context.Context, id string, status int, tr *trace.Tracer) (*telemetry.TraceStat, *keptTrace) {
	if s.traces == nil || tr == nil {
		return nil, nil
	}
	start, dur := time.Now(), time.Duration(0)
	if car := carrierFrom(ctx); car != nil {
		start, dur = car.t0, time.Since(car.t0)
	}
	keep, reason := s.sampler.decide(status, dur)
	st := &telemetry.TraceStat{TraceID: id, Spans: tr.Len(), Retained: keep, Reason: reason}
	if !keep {
		return st, nil
	}
	return st, &keptTrace{id: id, status: status, dur: dur, reason: reason, start: start, tracer: tr}
}

// reply writes v as the /render answer inside a "reply" span on the
// request's rank 0 (nil in model mode, whose timeline is modeled), and
// only then retains kept: a trace in the ring gains no more spans, so a
// /traces reader never sees one still being written, and its tree holds
// one span more than its verdict counted. A retained trace's ID becomes
// the request's latency exemplar, and an SLO breach additionally writes
// a diagnostic bundle.
func (s *Server) reply(ctx context.Context, w http.ResponseWriter, code int, v any, r0 *trace.Rank, kept *keptTrace) {
	sp := r0.Begin(trace.PhaseOther, "reply")
	writeJSON(w, code, v)
	sp.End()
	if kept == nil {
		return
	}
	s.traces.add(kept)
	if car := carrierFrom(ctx); car != nil {
		car.exemplar = kept.id
	}
	if kept.reason == reasonSLO && s.cfg.DiagDir != "" {
		s.writeDiagBundle(kept.id, kept.status, kept.dur, kept.tracer)
	}
}

// maxDiagBundles caps SLO diagnostic files per process: a persistently
// breached SLO should not fill the disk with near-identical bundles.
const maxDiagBundles = 32

// diagBundle is the slow-request diagnostic file: everything an
// operator needs to start on an SLO breach without the process —
// the request's span tree, the live metrics, and the flight-recorder
// tail leading up to it.
type diagBundle struct {
	RequestID  string            `json:"request_id"`
	Endpoint   string            `json:"endpoint"`
	Status     int               `json:"status"`
	DurationMs float64           `json:"duration_ms"`
	SLOMs      float64           `json:"slo_ms"`
	Written    time.Time         `json:"written"`
	Spans      []*trace.SpanNode `json:"spans"`
	Metrics    []obs.Sample      `json:"metrics,omitempty"`
	Flight     []obs.Event       `json:"flight,omitempty"`
}

// writeDiagBundle writes the SLO diagnostic JSON under DiagDir as
// slo-<request-id>.json (temp file + rename, so readers never see a
// partial bundle). Failures are logged, never surfaced to the client.
func (s *Server) writeDiagBundle(id string, status int, dur time.Duration, tr *trace.Tracer) {
	if s.diagWritten.Add(1) > maxDiagBundles {
		return
	}
	b := diagBundle{
		RequestID:  id,
		Endpoint:   renderEndpoint,
		Status:     status,
		DurationMs: float64(dur.Microseconds()) / 1e3,
		SLOMs:      float64(s.cfg.SLO.Microseconds()) / 1e3,
		Written:    time.Now(),
		Spans:      tr.SpanTree(),
		Metrics:    s.cfg.Registry.Snapshot(),
		Flight:     obs.FlightRing.Events(),
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		s.log.Warn("diag bundle marshal failed", "request_id", id, "err", err)
		return
	}
	if err := os.MkdirAll(s.cfg.DiagDir, 0o755); err != nil {
		s.log.Warn("diag dir not writable", "dir", s.cfg.DiagDir, "err", err)
		return
	}
	path := filepath.Join(s.cfg.DiagDir, "slo-"+sanitizeID(id)+".json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		s.log.Warn("diag bundle write failed", "path", tmp, "err", err)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		s.log.Warn("diag bundle rename failed", "path", path, "err", err)
		return
	}
	s.log.Info("slo diagnostic bundle written", "request_id", id, "path", path,
		"dur_ms", b.DurationMs, "slo_ms", b.SLOMs)
}

// sanitizeID makes a client-supplied request ID safe as a file name
// component: anything outside [A-Za-z0-9._-] becomes '_'.
func sanitizeID(id string) string {
	if id == "" {
		return "unknown"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '_'
	}, id)
}

// TraceSummary is one retained trace's identity line in GET /traces.
type TraceSummary struct {
	ID         string    `json:"id"`
	Endpoint   string    `json:"endpoint"`
	Status     int       `json:"status"`
	DurationMs float64   `json:"duration_ms"`
	Reason     string    `json:"reason"`
	Start      time.Time `json:"start"`
	Spans      int       `json:"spans"`
}

// TraceStoreStats is the trace ring's occupancy, served in /status
// next to the cache and admission state, and in /traces.
type TraceStoreStats struct {
	Entries     int              `json:"entries"`
	Bytes       int64            `json:"bytes"`
	BudgetBytes int64            `json:"budget_bytes"`
	Evictions   int64            `json:"evictions"`
	ByReason    map[string]int64 `json:"by_reason,omitempty"` // kept counts per sample reason, cumulative
}

// TracesReply is the GET /traces body: store occupancy plus the
// retained traces, newest first.
type TracesReply struct {
	Store  TraceStoreStats `json:"store"`
	Traces []TraceSummary  `json:"traces"`
}

// TraceDetail is the GET /traces/{id} body: the summary plus the
// nested span tree.
type TraceDetail struct {
	TraceSummary
	Tree []*trace.SpanNode `json:"tree"`
}

func summarize(t *keptTrace) TraceSummary {
	return TraceSummary{
		ID: t.id, Endpoint: renderEndpoint, Status: t.status,
		DurationMs: float64(t.dur.Microseconds()) / 1e3,
		Reason:     t.reason, Start: t.start, Spans: t.tracer.Len(),
	}
}

// tracingEnabled answers the common guard for both /traces views.
func (s *Server) tracingEnabled(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "GET or HEAD only", http.StatusMethodNotAllowed)
		return false
	}
	if s.traces == nil {
		http.Error(w, "request tracing disabled (trace budget set to -1)", http.StatusNotFound)
		return false
	}
	return true
}

// handleTraces is GET /traces: the retained traces (newest first) with
// the store's occupancy, as JSON or a text table with ?text=1.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if !s.tracingEnabled(w, r) {
		return
	}
	reply := TracesReply{Store: s.traces.stats()}
	for _, t := range s.traces.list() {
		reply.Traces = append(reply.Traces, summarize(t))
	}
	if r.URL.Query().Get("text") == "" {
		writeJSON(w, http.StatusOK, reply)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var b strings.Builder
	fmt.Fprintf(&b, "trace store: %d traces, %d / %d bytes, %d evicted\n",
		reply.Store.Entries, reply.Store.Bytes, reply.Store.BudgetBytes, reply.Store.Evictions)
	fmt.Fprintf(&b, "%-20s %-8s %5s %10s %-6s %6s\n", "id", "endpoint", "code", "dur_ms", "reason", "spans")
	for _, t := range reply.Traces {
		fmt.Fprintf(&b, "%-20s %-8s %5d %10.2f %-6s %6d\n",
			t.ID, t.Endpoint, t.Status, t.DurationMs, t.Reason, t.Spans)
	}
	fmt.Fprint(w, b.String())
}

// handleTraceByID is GET /traces/{id}: the span tree as JSON, or the
// Chrome trace_event export with ?format=chrome (loadable in Perfetto).
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	if !s.tracingEnabled(w, r) {
		return
	}
	id := r.PathValue("id")
	t, ok := s.traces.get(id)
	if !ok {
		http.Error(w, fmt.Sprintf("trace %q not retained (evicted, or never sampled)", id), http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", "trace-"+sanitizeID(id)+".json"))
		_ = t.tracer.WriteChrome(w)
		return
	}
	writeJSON(w, http.StatusOK, TraceDetail{
		TraceSummary: summarize(t),
		Tree:         t.tracer.SpanTree(),
	})
}
