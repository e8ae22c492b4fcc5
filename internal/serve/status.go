package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"bgpvr/internal/obs"
)

// EndpointStatus is one endpoint's RED summary: request counts by
// status code plus latency quantiles estimated from the endpoint's
// histogram (obs.Histogram.Quantile — the same estimator the load
// harness uses).
type EndpointStatus struct {
	Endpoint string           `json:"endpoint"`
	Requests int64            `json:"requests"`
	ByCode   map[string]int64 `json:"by_code,omitempty"`
	MeanMs   float64          `json:"mean_ms"`
	P50Ms    float64          `json:"p50_ms"`
	P90Ms    float64          `json:"p90_ms"`
	P99Ms    float64          `json:"p99_ms"`
}

// CacheStatus reports the field cache. Its two kinds of entry are
// reported apart: field_* counts block fields only, turbulence_*
// the turbulence tables they share the budget with.
type CacheStatus struct {
	FieldHits         int64 `json:"field_hits"`
	FieldMisses       int64 `json:"field_misses"`
	FieldEntries      int   `json:"field_entries"`
	FieldBytes        int64 `json:"field_bytes"`
	TurbulenceHits    int64 `json:"turbulence_hits"`
	TurbulenceMisses  int64 `json:"turbulence_misses"`
	TurbulenceEntries int   `json:"turbulence_entries"`
	TurbulenceBytes   int64 `json:"turbulence_bytes"`
}

// StatusReply is the GET /status body.
type StatusReply struct {
	UptimeSec     float64          `json:"uptime_sec"`
	ShuttingDown  bool             `json:"shutting_down,omitempty"`
	Inflight      int64            `json:"inflight"`
	Queued        int64            `json:"queued"`
	MaxConcurrent int              `json:"max_concurrent"`
	QueueDepth    int              `json:"queue_depth"`
	Workers       int              `json:"workers"`
	Rejected429   int64            `json:"rejected_429"`
	Deadline503   int64            `json:"deadline_503"`
	Endpoints     []EndpointStatus `json:"endpoints"`
	Cache         CacheStatus      `json:"cache"`
	// TraceStore is the tail-sampled trace store's occupancy (absent
	// when tracing is disabled): entries, bytes against budget,
	// evictions, and cumulative kept counts per sample reason.
	TraceStore *TraceStoreStats `json:"trace_store,omitempty"`
}

// Status assembles the live status snapshot.
func (s *Server) Status() StatusReply {
	st := StatusReply{
		UptimeSec:     time.Since(s.start).Seconds(),
		ShuttingDown:  obs.ShuttingDown(),
		Inflight:      s.inflight.Load(),
		MaxConcurrent: s.cfg.MaxConcurrent,
		QueueDepth:    s.cfg.QueueDepth,
		Workers:       s.cfg.Workers,
		Rejected429:   s.rejected.Value(),
		Deadline503:   s.deadline.Value(),
	}
	if q := s.waiting.Load() - st.Inflight; q > 0 {
		st.Queued = q
	}

	// Per-endpoint code counts from the request family, quantiles from
	// the latency family. Labels are the ones instrument rendered, so
	// parsing them back is parsing our own format.
	byEndpoint := map[string]*EndpointStatus{}
	get := func(ep string) *EndpointStatus {
		e, ok := byEndpoint[ep]
		if !ok {
			e = &EndpointStatus{Endpoint: ep, ByCode: map[string]int64{}}
			byEndpoint[ep] = e
		}
		return e
	}
	s.requests.Each(func(labels string, c *obs.Counter) {
		lv := parseLabels(labels)
		e := get(lv["endpoint"])
		e.ByCode[lv["code"]] += c.Value()
		e.Requests += c.Value()
	})
	s.latency.Each(func(labels string, h *obs.Histogram) {
		e := get(parseLabels(labels)["endpoint"])
		n := h.Count()
		if n == 0 {
			return // Quantile is NaN on empty — leave the zeros
		}
		e.MeanMs = h.Sum() / float64(n) * 1e3
		e.P50Ms = h.Quantile(0.5) * 1e3
		e.P90Ms = h.Quantile(0.9) * 1e3
		e.P99Ms = h.Quantile(0.99) * 1e3
	})
	for _, e := range byEndpoint {
		st.Endpoints = append(st.Endpoints, *e)
	}
	sort.Slice(st.Endpoints, func(i, j int) bool {
		return st.Endpoints[i].Endpoint < st.Endpoints[j].Endpoint
	})

	if s.traces != nil {
		ts := s.traces.stats()
		st.TraceStore = &ts
	}
	fs, ts := s.fields.Stats()
	st.Cache = CacheStatus{
		FieldHits:         s.fields.hits.Value(),
		FieldMisses:       s.fields.misses.Value(),
		FieldEntries:      fs.entries,
		FieldBytes:        fs.bytes,
		TurbulenceHits:    s.fields.turbHits.Value(),
		TurbulenceMisses:  s.fields.turbMisses.Value(),
		TurbulenceEntries: ts.entries,
		TurbulenceBytes:   ts.bytes,
	}
	return st
}

// handleStatus is GET /status: JSON by default, a plain-text table
// with ?text=1.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "GET or HEAD only", http.StatusMethodNotAllowed)
		return
	}
	st := s.Status()
	if r.URL.Query().Get("text") == "" {
		writeJSON(w, http.StatusOK, st)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var b strings.Builder
	fmt.Fprintf(&b, "bgpvr render service: up %.1fs, %d in flight, %d queued (max %d + queue %d), workers %d\n",
		st.UptimeSec, st.Inflight, st.Queued, st.MaxConcurrent, st.QueueDepth, st.Workers)
	if st.ShuttingDown {
		fmt.Fprintln(&b, "SHUTTING DOWN: draining in-flight requests")
	}
	fmt.Fprintf(&b, "admission: %d rejected (429), %d deadline-expired (503)\n", st.Rejected429, st.Deadline503)
	fmt.Fprintf(&b, "%-10s %9s %9s %9s %9s %9s  codes\n", "endpoint", "requests", "mean_ms", "p50_ms", "p90_ms", "p99_ms")
	for _, e := range st.Endpoints {
		codes := make([]string, 0, len(e.ByCode))
		for code, n := range e.ByCode {
			codes = append(codes, fmt.Sprintf("%s:%d", code, n))
		}
		sort.Strings(codes)
		fmt.Fprintf(&b, "%-10s %9d %9.2f %9.2f %9.2f %9.2f  %s\n",
			e.Endpoint, e.Requests, e.MeanMs, e.P50Ms, e.P90Ms, e.P99Ms, strings.Join(codes, " "))
	}
	c := st.Cache
	fmt.Fprintf(&b, "cache: field %d hits / %d misses (%d entries, %d bytes); turbulence %d hits / %d misses (%d entries, %d bytes)\n",
		c.FieldHits, c.FieldMisses, c.FieldEntries, c.FieldBytes,
		c.TurbulenceHits, c.TurbulenceMisses, c.TurbulenceEntries, c.TurbulenceBytes)
	if ts := st.TraceStore; ts != nil {
		reasons := make([]string, 0, len(ts.ByReason))
		for reason, n := range ts.ByReason {
			reasons = append(reasons, fmt.Sprintf("%s:%d", reason, n))
		}
		sort.Strings(reasons)
		fmt.Fprintf(&b, "traces: %d retained (%d / %d bytes), %d evicted; kept %s\n",
			ts.Entries, ts.Bytes, ts.BudgetBytes, ts.Evictions, strings.Join(reasons, " "))
	}
	fmt.Fprint(w, b.String())
}

// parseLabels inverts obs.Labels: `k="v",k2="v2"` to a map. Values
// never contain quotes here (endpoints and status codes), so a simple
// split is exact.
func parseLabels(s string) map[string]string {
	out := map[string]string{}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			continue
		}
		out[k] = strings.Trim(v, `"`)
	}
	return out
}
