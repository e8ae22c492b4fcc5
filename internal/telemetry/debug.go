package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"html"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bgpvr/internal/critpath"
	"bgpvr/internal/obs"
	"bgpvr/internal/par"
	"bgpvr/internal/trace"
)

// serveView writes v as indented JSON, or the text rendering with
// ?text=1 — the shared contract of the analysis views.
func serveView(w http.ResponseWriter, r *http.Request, v any, text func() string) {
	if r.URL.Query().Get("text") != "" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, text())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Snapshot is the live view served at /telemetry and published through
// expvar: the trace counter totals plus histogram and link-usage
// aggregates. It is rebuilt on every request, so a long model sweep
// can be watched while it runs.
type Snapshot struct {
	Counters   map[string]int64 `json:"counters,omitempty"`
	Histograms []HistogramStat  `json:"histograms,omitempty"`
	Network    *NetworkStat     `json:"network,omitempty"`
	Parallel   *ParallelSnap    `json:"parallel,omitempty"`
}

// ParallelSnap is the live pool/gang utilization view inside the
// /telemetry snapshot — the same accumulators the perf report freezes
// at exit and /metrics exposes as gauges.
type ParallelSnap struct {
	PoolBusySeconds float64 `json:"pool_busy_seconds"`
	PoolWallSeconds float64 `json:"pool_wall_seconds"`
	PoolSpeedup     float64 `json:"pool_speedup"`
	GangBusySeconds float64 `json:"gang_busy_seconds"`
	GangWallSeconds float64 `json:"gang_wall_seconds"`
	GangRuns        int64   `json:"gang_runs"`
}

func parallelSnap() *ParallelSnap {
	busy, wall := par.Stats()
	gb, gw, runs := par.GangStats()
	if wall <= 0 && gw <= 0 && runs == 0 {
		return nil
	}
	ps := &ParallelSnap{
		PoolBusySeconds: busy.Seconds(),
		PoolWallSeconds: wall.Seconds(),
		GangBusySeconds: gb.Seconds(),
		GangWallSeconds: gw.Seconds(),
		GangRuns:        runs,
	}
	if wall > 0 {
		ps.PoolSpeedup = busy.Seconds() / wall.Seconds()
	}
	return ps
}

// DebugSource bundles what the debug endpoint serves. Every field is
// optional; views whose source is absent answer 404.
type DebugSource struct {
	// Tracer and Net feed the live /telemetry snapshot and expvar.
	Tracer *trace.Tracer
	Net    *NetTelemetry
	// Crit is invoked on each /critpath request to produce a live
	// critical-path analysis; return nil while the run is still going
	// (the view answers 503 until then).
	Crit func() *critpath.Analysis
	// Fidelity is invoked on each /fidelity request to produce the
	// paper-fidelity scorecard; same nil-means-pending contract.
	Fidelity func() *FidelityStat
	// RunsPath, when set, is the runstore JSONL file streamed verbatim
	// at /runs (application/x-ndjson): one perf record per line.
	RunsPath string
	// Extra mounts additional endpoints on the debug mux and lists
	// them on the index page. Handlers are mounted as-is — an owner
	// that serves writes (the render service's POST /render) enforces
	// its own methods; the built-in views stay GET/HEAD-only.
	Extra []DebugEndpoint
}

// DebugEndpoint is one caller-supplied endpoint for the debug mux.
type DebugEndpoint struct {
	Path    string // mux pattern, e.g. "/status"
	Desc    string // one-line description for the index page
	Handler http.Handler
}

// snapshotSource is what the debug server reads on each request. The
// expvar publication reads it through a package-level atomic so that
// restarting a server (tests, repeated runs) never re-publishes a
// duplicate var.
type snapshotSource struct {
	tracer *trace.Tracer
	net    *NetTelemetry
}

func (s *snapshotSource) snapshot() Snapshot {
	var snap Snapshot
	if s == nil {
		return snap
	}
	if s.tracer != nil {
		tot := s.tracer.Totals()
		snap.Counters = map[string]int64{}
		for c := trace.Counter(0); c < trace.NumCounters; c++ {
			if tot[c] != 0 {
				snap.Counters[c.String()] = tot[c]
			}
		}
	}
	if s.net != nil {
		var r Report
		r.AddNetTelemetry(s.net)
		snap.Histograms = r.Histograms
		snap.Network = r.Network
	}
	snap.Parallel = parallelSnap()
	return snap
}

// writeTraceMetrics appends the tracer's counter totals to the
// Prometheus exposition as one labeled counter family.
func writeTraceMetrics(w io.Writer, t *trace.Tracer) {
	if t == nil {
		return
	}
	tot := t.Totals()
	fmt.Fprint(w, "# HELP bgpvr_trace_events_total Trace counter totals across all ranks.\n# TYPE bgpvr_trace_events_total counter\n")
	for c := trace.Counter(0); c < trace.NumCounters; c++ {
		fmt.Fprintf(w, "bgpvr_trace_events_total{counter=%q} %d\n", c.String(), tot[c])
	}
}

// readOnly restricts a view to GET and HEAD: every view the debug
// endpoint serves is a read, so any other method is a caller bug and
// answers 405 instead of silently running the handler.
func readOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed; debug views are read-only", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

var (
	expvarOnce sync.Once
	expvarSrc  atomic.Pointer[snapshotSource]
)

// Timeouts of the two long-lived HTTP servers (this endpoint and the
// render service, internal/serve): a client gets ReadHeaderTimeout to
// finish its request line and headers, so a connection that trickles
// them cannot hold a goroutine and a descriptor forever, and an idle
// keep-alive connection is dropped after IdleTimeout. Neither bounds a
// handler — /debug/pprof/profile and /render run as long as they need.
const (
	ReadHeaderTimeout = 10 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// readHeaderTimeout is ReadHeaderTimeout, shortened by the slow-client
// test.
var readHeaderTimeout = ReadHeaderTimeout

// DebugServer is the opt-in -debug-addr HTTP endpoint: net/http/pprof
// under /debug/pprof/, expvar under /debug/vars (including a "bgpvr"
// var with the live telemetry snapshot), the JSON snapshot at
// /telemetry, Prometheus text metrics at /metrics, and the analysis
// views /critpath, /fidelity, /runs. All views are read-only: anything
// but GET/HEAD answers 405.
type DebugServer struct {
	Addr string // the bound address (resolves ":0")
	ln   net.Listener
	srv  *http.Server
}

// NewDebugMux assembles the debug endpoint's mux: pprof, expvar, the
// live /telemetry snapshot, Prometheus /metrics, the analysis views,
// any Extra endpoints, and an index page at "/" listing everything.
// StartDebug wraps it in a background server; the render service
// mounts it directly so one port serves both the API and the
// observability surfaces.
func NewDebugMux(ds DebugSource) *http.ServeMux {
	src := &snapshotSource{tracer: ds.Tracer, net: ds.Net}
	expvarSrc.Store(src)
	expvarOnce.Do(func() {
		expvar.Publish("bgpvr", expvar.Func(func() any {
			return expvarSrc.Load().snapshot()
		}))
	})

	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/telemetry", readOnly(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(src.snapshot())
	}))
	mux.HandleFunc("/metrics", readOnly(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.WriteMetricsTo(w); err != nil {
			return
		}
		writeTraceMetrics(w, ds.Tracer)
	}))
	mux.HandleFunc("/critpath", readOnly(func(w http.ResponseWriter, r *http.Request) {
		if ds.Crit == nil {
			http.Error(w, "no critical-path source attached (run with -critpath)", http.StatusNotFound)
			return
		}
		a := ds.Crit()
		if a == nil {
			http.Error(w, "critical-path analysis not available yet", http.StatusServiceUnavailable)
			return
		}
		serveView(w, r, a, a.Text)
	}))
	mux.HandleFunc("/fidelity", readOnly(func(w http.ResponseWriter, r *http.Request) {
		if ds.Fidelity == nil {
			http.Error(w, "no fidelity source attached (run experiments -exp fidelity)", http.StatusNotFound)
			return
		}
		f := ds.Fidelity()
		if f == nil {
			http.Error(w, "fidelity scorecard not available yet", http.StatusServiceUnavailable)
			return
		}
		serveView(w, r, f, f.Table)
	}))
	mux.HandleFunc("/runs", readOnly(func(w http.ResponseWriter, r *http.Request) {
		if ds.RunsPath == "" {
			http.Error(w, "no run store attached (run with -run-record)", http.StatusNotFound)
			return
		}
		f, err := os.Open(ds.RunsPath)
		if err != nil {
			http.Error(w, "run store not readable yet: "+err.Error(), http.StatusServiceUnavailable)
			return
		}
		defer f.Close()
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = io.Copy(w, f)
	}))
	// The index: every registered endpoint with a one-line description,
	// so operators can discover the surfaces without reading the source.
	index := []DebugEndpoint{
		{Path: "/debug/pprof/", Desc: "net/http/pprof profiles (heap, goroutine, CPU, ...)"},
		{Path: "/debug/vars", Desc: "expvar JSON (includes the live bgpvr telemetry snapshot)"},
		{Path: "/telemetry", Desc: "live telemetry snapshot: trace counters, histograms, network, parallel"},
		{Path: "/metrics", Desc: "Prometheus text exposition of the live metrics registry"},
		{Path: "/critpath", Desc: "critical-path & load-imbalance analysis (?text=1 for the report)"},
		{Path: "/fidelity", Desc: "paper-fidelity scorecard (?text=1 for the table)"},
		{Path: "/runs", Desc: "run registry stream (application/x-ndjson)"},
	}
	for _, e := range ds.Extra {
		mux.Handle(e.Path, e.Handler)
		index = append(index, DebugEndpoint{Path: e.Path, Desc: e.Desc})
	}
	sort.Slice(index, func(i, j int) bool { return index[i].Path < index[j].Path })
	mux.HandleFunc("/", readOnly(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		if r.URL.Query().Get("text") != "" || !strings.Contains(r.Header.Get("Accept"), "text/html") {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, "bgpvr debug endpoint\n\n")
			for _, e := range index {
				fmt.Fprintf(w, "%-16s %s\n", e.Path, e.Desc)
			}
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, "<!DOCTYPE html><html><head><title>bgpvr debug endpoint</title></head><body><h1>bgpvr debug endpoint</h1><ul>\n")
		for _, e := range index {
			fmt.Fprintf(w, `<li><a href="%s">%s</a> — %s</li>`+"\n",
				html.EscapeString(e.Path), html.EscapeString(e.Path), html.EscapeString(e.Desc))
		}
		fmt.Fprint(w, "</ul></body></html>\n")
	}))
	return mux
}

// StartDebug binds addr and serves the debug endpoint in the
// background until Close (or Shutdown, which drains in-flight
// requests). Every DebugSource field is optional; /critpath and
// /fidelity serve JSON, or the text report with ?text=1, and answer
// 503 while their producer still returns nil.
func StartDebug(addr string, ds DebugSource) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: debug endpoint: %w", err)
	}
	s := &DebugServer{Addr: ln.Addr().String(), ln: ln, srv: &http.Server{
		Handler: NewDebugMux(ds), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: IdleTimeout}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Close stops the server immediately, dropping in-flight requests.
func (s *DebugServer) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
