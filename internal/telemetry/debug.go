package telemetry

import (
	"expvar"
	"fmt"
	"html"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"

	"bgpvr/internal/obs"
	"bgpvr/internal/trace"
)

// DebugSource bundles what the debug endpoint serves. Every field is
// optional.
type DebugSource struct {
	// Tracer adds its counter totals to /metrics as the
	// bgpvr_trace_events_total family.
	Tracer *trace.Tracer
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
// under /debug/pprof/, Go's expvar (memstats, cmdline) under
// /debug/vars, and the live numbers as Prometheus text at /metrics.
// All views are read-only: anything but GET/HEAD answers 405.
type DebugServer struct {
	Addr string // the bound address (resolves ":0")
	ln   net.Listener
	srv  *http.Server
}

// NewDebugMux assembles the debug endpoint's mux: pprof, expvar,
// Prometheus /metrics, any Extra endpoints, and an index page at
// "/" listing everything. StartDebug wraps it in a background server;
// the render service mounts it directly so one port serves both the API
// and the observability surfaces.
func NewDebugMux(ds DebugSource) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", readOnly(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.WriteMetricsTo(w); err != nil {
			return
		}
		writeTraceMetrics(w, ds.Tracer)
	}))
	// The index: every registered endpoint with a one-line description,
	// so operators can discover the surfaces without reading the source.
	index := []DebugEndpoint{
		{Path: "/debug/pprof/", Desc: "net/http/pprof profiles (heap, goroutine, CPU, ...)"},
		{Path: "/debug/vars", Desc: "expvar JSON (Go runtime memstats, cmdline)"},
		{Path: "/metrics", Desc: "Prometheus text exposition of the live metrics registry"},
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
// background until Close. Every DebugSource field is optional.
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
