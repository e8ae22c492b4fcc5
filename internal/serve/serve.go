package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"bgpvr/internal/core"
	"bgpvr/internal/obs"
	"bgpvr/internal/par"
	"bgpvr/internal/telemetry"
	"bgpvr/internal/trace"
)

// Config configures the render service.
type Config struct {
	// MaxConcurrent is how many frames render at once (default 2).
	// Each frame internally uses Workers goroutines, so the service's
	// CPU footprint is roughly MaxConcurrent*Workers.
	MaxConcurrent int
	// QueueDepth is how many admitted requests may wait for a render
	// slot beyond the ones in flight; the next one is rejected with
	// 429 (default 8).
	QueueDepth int
	// DefaultDeadline bounds a request end to end — queue wait plus
	// render — when the request doesn't set deadline_ms (default 30s).
	// An expired deadline answers 503 with a partial perf report.
	DefaultDeadline time.Duration
	// Workers is the per-frame render pool width (default: all cores,
	// par.Workers(0)).
	Workers int
	// CacheMB bounds the volume field cache, block fields and the
	// turbulence tables they are built from together (default 256 MB).
	CacheMB int
	// Registry receives the service's metrics (default obs.Default,
	// which /metrics exposes). Tests pass a private registry.
	Registry *obs.Registry
	// Log receives structured access logs (default slog.Default()).
	Log *slog.Logger

	// SLO, when positive, classifies any slower /render request as a
	// service-level breach: its trace is always retained (reason "slo")
	// and, when DiagDir is set, a diagnostic bundle is written.
	SLO time.Duration
	// DiagDir, when set, receives slow-request diagnostic bundles —
	// one JSON file per SLO breach (span tree, metrics snapshot,
	// flight-recorder tail), capped at maxDiagBundles per process.
	DiagDir string
	// TraceBudgetMB bounds the in-process trace store's estimated
	// resident bytes (default 8 MiB). -1 disables request tracing, the
	// store, and the /traces query surface entirely.
	TraceBudgetMB int
	// TraceSampleN keeps 1 in N requests that no tail rule retained
	// (default 16; 1 keeps everything, negative disables the baseline).
	TraceSampleN int

	// renderGate, when non-nil, is called while holding a render slot
	// before the frame runs — a test hook for deterministic admission
	// tests.
	renderGate func()
}

// Server is the render service: an http.Handler plus the admission
// state and caches behind it. Create with New, mount Handler() or call
// Start, and drain with Shutdown.
type Server struct {
	cfg   Config
	log   *slog.Logger
	start time.Time

	slots    chan struct{}
	waiting  atomic.Int64 // admitted: queued + in flight
	inflight atomic.Int64 // holding a render slot
	reqSeq   atomic.Int64

	fields *fieldCache

	// traces/sampler are the tail-sampled trace store (nil when
	// disabled with TraceBudgetMB = -1); diagWritten caps SLO bundles.
	traces      *traceRing
	sampler     *tailSampler
	diagWritten atomic.Int64

	requests *obs.CounterVec   // bgpvr_serve_requests_total{endpoint,code}
	latency  *obs.HistogramVec // bgpvr_serve_latency_seconds{endpoint}
	rejected *obs.Counter      // bgpvr_serve_rejected_total
	deadline *obs.Counter      // bgpvr_serve_deadline_total

	mux     http.Handler
	httpSrv *http.Server
	ln      net.Listener
	// readHeaderTimeout is telemetry.ReadHeaderTimeout, shortened by
	// the slow-client test.
	readHeaderTimeout time.Duration
}

// latencyBuckets spans 1ms..~16s log-2 — frame times from a cached
// 32^3 real frame to a deadline-bounded big one.
var latencyBuckets = obs.ExpBuckets(0.001, 2, 15)

// New builds a Server from cfg (zero values take the documented
// defaults).
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	} else if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 8
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = 30 * time.Second
	}
	cfg.Workers = par.Workers(cfg.Workers)
	if cfg.CacheMB <= 0 {
		cfg.CacheMB = 256
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default
	}
	if cfg.Log == nil {
		cfg.Log = slog.Default()
	}
	if cfg.TraceBudgetMB == 0 {
		cfg.TraceBudgetMB = 8
	}
	if cfg.TraceSampleN == 0 {
		cfg.TraceSampleN = 16
	}
	r := cfg.Registry
	s := &Server{
		cfg:   cfg,
		log:   cfg.Log,
		start: time.Now(),
		slots: make(chan struct{}, cfg.MaxConcurrent),

		readHeaderTimeout: telemetry.ReadHeaderTimeout,

		requests: r.NewCounterVec("bgpvr_serve_requests_total",
			"Requests served, by endpoint and status code."),
		latency: r.NewHistogramVec("bgpvr_serve_latency_seconds",
			"Request latency by endpoint.", latencyBuckets),
		rejected: r.NewCounter("bgpvr_serve_rejected_total",
			"Requests rejected 429 because the queue was full."),
		deadline: r.NewCounter("bgpvr_serve_deadline_total",
			"Requests that exceeded their deadline (503)."),
	}
	hits := r.NewCounterVec("bgpvr_serve_cache_hits_total", "Cache hits by cache.")
	misses := r.NewCounterVec("bgpvr_serve_cache_misses_total", "Cache misses by cache.")
	s.fields = newFieldCache(int64(cfg.CacheMB)<<20, hits, misses)
	r.NewGaugeFunc("bgpvr_serve_inflight", "Frames currently rendering.",
		func() float64 { return float64(s.inflight.Load()) })
	r.NewGaugeFunc("bgpvr_serve_queue_depth", "Admitted requests waiting for a render slot.",
		func() float64 { return max(0, float64(s.waiting.Load()-s.inflight.Load())) })

	if cfg.TraceBudgetMB > 0 {
		s.traces = newTraceRing(int64(cfg.TraceBudgetMB) << 20)
		s.sampler = newTailSampler(cfg.SLO, cfg.TraceSampleN)
	}

	s.mux = telemetry.NewDebugMux(telemetry.DebugSource{
		Extra: []telemetry.DebugEndpoint{
			{Path: "/render", Desc: "render a frame (POST, JSON body)",
				Handler: s.instrument("/render", s.handleRender)},
			{Path: "/status", Desc: "service status: uptime, admission, per-endpoint latency quantiles, caches, trace store",
				Handler: s.instrument("/status", s.handleStatus)},
			{Path: "/traces", Desc: "tail-sampled request traces: list with store occupancy (GET)",
				Handler: s.instrument("/traces", s.handleTraces)},
			{Path: "/traces/{id}", Desc: "one retained trace: span tree JSON, ?format=chrome for trace_event",
				Handler: s.instrument("/traces/{id}", s.handleTraceByID)},
		},
	})
	return s
}

// Handler returns the service's full mux: /render, /status, /traces,
// and the debug suite (index, /metrics, pprof).
func (s *Server) Handler() http.Handler { return s.mux }

// Addr returns the bound address after Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Start listens on addr and serves in a background goroutine.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.mux,
		ReadHeaderTimeout: s.readHeaderTimeout, IdleTimeout: telemetry.IdleTimeout}
	go func() { _ = s.httpSrv.Serve(ln) }()
	s.log.Info("render service listening", "addr", ln.Addr().String(),
		"max_concurrent", s.cfg.MaxConcurrent, "queue_depth", s.cfg.QueueDepth,
		"default_deadline", s.cfg.DefaultDeadline, "workers", s.cfg.Workers)
	return nil
}

// Shutdown drains the service: it marks the process as shutting down
// (so the flight recorder treats signals as the drain, not a crash),
// stops accepting connections, and waits for in-flight requests up to
// ctx's deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	obs.BeginShutdown("render service drain")
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Shutdown(ctx)
}

// statusWriter captures the response code for logs and metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// carrierKey carries the request's traceCarrier through the context.
type carrierKey struct{}

// traceCarrier rides the request context between instrument and the
// endpoint handler: the handler deposits a retained trace's ID once it
// has written its response, and instrument's tail stamps the latency
// histogram with it as an exemplar.
type traceCarrier struct {
	t0       time.Time
	exemplar string // retained trace ID, "" when the trace was dropped
}

// instrument wraps an endpoint with the request-scoped observability
// stack: request ID (accepted from X-Request-ID or generated, echoed
// back, and attached to the context so core notes it in the flight
// ring), RED metrics with trace exemplars, and a structured access log
// line.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	hist := s.latency.With(obs.Labels("endpoint", endpoint))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = fmt.Sprintf("r%06d", s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		car := &traceCarrier{t0: t0}
		ctx := context.WithValue(core.WithRequestID(r.Context(), id), carrierKey{}, car)
		h(sw, r.WithContext(ctx))
		dur := time.Since(t0)
		if car.exemplar != "" {
			hist.ObserveEx(dur.Seconds(), car.exemplar)
		} else {
			hist.Observe(dur.Seconds())
		}
		s.requests.With(obs.Labels("endpoint", endpoint, "code", strconv.Itoa(sw.code))).Inc()
		s.log.Info("request",
			"request_id", id, "endpoint", endpoint, "method", r.Method,
			"code", sw.code, "dur_ms", float64(dur.Microseconds())/1e3,
			"remote", r.RemoteAddr)
	})
}

// carrierFrom returns the request's trace carrier (nil outside
// instrument, e.g. in direct handler tests).
func carrierFrom(ctx context.Context) *traceCarrier {
	c, _ := ctx.Value(carrierKey{}).(*traceCarrier)
	return c
}

// writeJSON writes v as the response with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// errorReply is the JSON body of every non-2xx answer.
type errorReply struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id"`
	// Report carries the partial perf report on deadline expiry: the
	// spans that did complete, marked partial.
	Report *telemetry.Report `json:"report,omitempty"`
}

// RenderResponse is the POST /render reply.
type RenderResponse struct {
	RequestID string          `json:"request_id"`
	Mode      string          `json:"mode"`
	Times     core.StageTimes `json:"times"`
	Samples   int64           `json:"samples,omitempty"`
	// Report is the per-request perf report: the same schema the CLI
	// writes with -perf-report, scoped to this one frame.
	Report *telemetry.Report `json:"report"`
	// ImagePPM is the PPM when include_image was set. encoding/json
	// writes it as a standard padded base64 string.
	ImagePPM []byte `json:"image_ppm,omitempty"`
}

const maxBodyBytes = 1 << 20

// handleRender is POST /render: decode, validate, admit, render,
// report. Every exit path runs the tail-sampling decision so the trace
// store sees rejected and expired requests too (those always retain).
func (s *Server) handleRender(w http.ResponseWriter, r *http.Request) {
	id := core.RequestIDFrom(r.Context())
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorReply{Error: "POST only", RequestID: id})
		return
	}
	req, spec, err := decodeRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes), s.cfg.Workers)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: err.Error(), RequestID: id})
		return
	}
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	// The request tracer is created before admission so queue time is
	// on the trace. Model mode keeps its virtual tracer (created in
	// renderFrame); its wall-side spans would not share a clock with
	// the modeled timeline.
	var tr *trace.Tracer
	if spec.mode != "model" {
		tr = trace.New(spec.procs)
	}
	r0 := tr.Rank(0)

	// Admission: bounded queue, then a render slot. The deadline keeps
	// ticking while queued, so a stuck service sheds load with 503s
	// and an overfull one with 429s.
	n := s.waiting.Add(1)
	defer s.waiting.Add(-1)
	adm := r0.Begin(trace.PhaseOther, "admission")
	if n > int64(s.cfg.MaxConcurrent+s.cfg.QueueDepth) {
		adm.End()
		s.rejected.Inc()
		_, kept := s.judge(ctx, id, http.StatusTooManyRequests, tr)
		s.reply(ctx, w, http.StatusTooManyRequests, errorReply{
			Error: fmt.Sprintf("queue full (%d in flight or queued)", n-1), RequestID: id}, r0, kept)
		return
	}
	qw := r0.Begin(trace.PhaseOther, "queue-wait")
	select {
	case s.slots <- struct{}{}:
		qw.End()
		defer func() { <-s.slots }()
	case <-ctx.Done():
		qw.End()
		adm.End()
		s.deadline.Inc()
		_, kept := s.judge(ctx, id, http.StatusServiceUnavailable, tr)
		s.reply(ctx, w, http.StatusServiceUnavailable, errorReply{
			Error: "deadline expired while queued", RequestID: id}, r0, kept)
		return
	}
	adm.End()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.cfg.renderGate != nil {
		s.cfg.renderGate()
	}

	resp, tr, err := s.renderFrame(ctx, id, spec, tr)
	if err != nil {
		if ctx.Err() != nil {
			// The frame ran out of deadline mid-flight: 503 with the
			// partial perf report (whatever spans completed).
			s.deadline.Inc()
			rep := s.buildReport(id, spec, tr, nil, 0, true)
			var kept *keptTrace
			rep.Trace, kept = s.judge(ctx, id, http.StatusServiceUnavailable, tr)
			s.reply(ctx, w, http.StatusServiceUnavailable, errorReply{
				Error: err.Error(), RequestID: id, Report: rep}, r0, kept)
			return
		}
		_, kept := s.judge(ctx, id, http.StatusInternalServerError, tr)
		s.reply(ctx, w, http.StatusInternalServerError, errorReply{Error: err.Error(), RequestID: id}, r0, kept)
		return
	}
	var kept *keptTrace
	resp.Report.Trace, kept = s.judge(ctx, id, http.StatusOK, tr)
	s.reply(ctx, w, http.StatusOK, resp, r0, kept)
}

// renderFrame executes the validated job with request-scoped tracing
// and telemetry. Real mode records onto the caller's wall tracer (the
// one carrying the admission spans); model mode lays its virtual
// timeline on a fresh virtual tracer. The tracer is returned even on
// error so the caller can build a partial report.
func (s *Server) renderFrame(ctx context.Context, id string, spec *jobSpec, tr *trace.Tracer) (*RenderResponse, *trace.Tracer, error) {
	nt := &telemetry.NetTelemetry{}
	resp := &RenderResponse{RequestID: id, Mode: spec.mode}
	switch spec.mode {
	case "model":
		tr = trace.NewVirtual(1)
		res, err := core.RunModel(core.ModelConfig{
			Ctx: ctx, Scene: spec.scene, Procs: spec.procs, Compositors: spec.m,
			Algo: spec.algo, Format: core.FormatGenerate, Trace: tr, Net: nt,
		})
		if err != nil {
			return nil, tr, err
		}
		resp.Times = res.Times
		resp.Report = s.buildReport(id, spec, tr, nt, res.Times.Total, false)
		return resp, tr, nil
	default: // "real"
		res, err := core.RunReal(core.RealConfig{
			Ctx: ctx, Scene: spec.scene, Procs: spec.procs, Compositors: spec.m,
			Algo: spec.algo, Format: core.FormatGenerate, Trace: tr, Net: nt,
			Fields: s.fields,
		})
		if err != nil {
			return nil, tr, err
		}
		resp.Times = res.Times
		resp.Samples = res.Samples
		resp.Report = s.buildReport(id, spec, tr, nt, res.Times.Total, false)
		if spec.image {
			enc := tr.Rank(0).Begin(trace.PhaseOther, "encode")
			resp.ImagePPM = res.Image.PPM(0)
			enc.End()
		}
		return resp, tr, nil
	}
}

// buildReport assembles the per-request perf report — the same shape
// the CLI's -perf-report writes, scoped to one frame.
func (s *Server) buildReport(id string, spec *jobSpec, tr *trace.Tracer, nt *telemetry.NetTelemetry, totalSec float64, partial bool) *telemetry.Report {
	r := telemetry.NewReport("serve-" + spec.mode)
	r.Config = map[string]string{
		"request_id": id,
		"mode":       spec.mode,
		"n":          strconv.Itoa(spec.scene.Dims.X),
		"img":        strconv.Itoa(spec.scene.ImageW),
		"procs":      strconv.Itoa(spec.procs),
		"m":          strconv.Itoa(spec.m),
		"format":     "generate",
	}
	if partial {
		r.Config["partial"] = "true"
	}
	r.TotalSec = totalSec
	if tr != nil {
		r.AddBreakdown(tr.Breakdown())
	}
	if nt != nil {
		r.AddNetTelemetry(nt)
	}
	return r
}
