package telemetry

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"bgpvr/internal/obs"
	"bgpvr/internal/par"
	"bgpvr/internal/trace"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestDebugServer pins the endpoint's one live view: /metrics is
// served, the index lists it, and the views that copied its numbers or
// served end-of-run analyses are gone — as is the "bgpvr" expvar var;
// /debug/vars is Go's own.
func TestDebugServer(t *testing.T) {
	tr := trace.NewVirtual(1)
	tr.Rank(0).Add(trace.CounterMessages, 7)
	srv, err := StartDebug("127.0.0.1:0", DebugSource{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr

	if code, body := get(t, base+"/metrics"); code != http.StatusOK ||
		!strings.Contains(body, `bgpvr_trace_events_total{counter="messages"} 7`) {
		t.Errorf("/metrics status %d body %q", code, body)
	}
	code, body := get(t, base+"/debug/vars")
	if code != http.StatusOK || !strings.Contains(body, `"memstats"`) || strings.Contains(body, `"bgpvr"`) {
		t.Errorf("/debug/vars status %d, memstats present: %v, bgpvr var present: %v",
			code, strings.Contains(body, `"memstats"`), strings.Contains(body, `"bgpvr"`))
	}
	code, body = get(t, base+"/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index status %d body %q", code, body)
	}
	for _, path := range []string{"/telemetry", "/critpath", "/fidelity"} {
		if strings.Contains(body, path) {
			t.Errorf("index still lists %s:\n%s", path, body)
		}
		if code, _ := get(t, base+path); code != http.StatusNotFound {
			t.Errorf("%s status %d, want 404", path, code)
		}
	}
	if code, _ := get(t, base+"/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path status %d", code)
	}
}

func TestDebugServerNilClose(t *testing.T) {
	var s *DebugServer
	if err := s.Close(); err != nil {
		t.Errorf("nil Close = %v", err)
	}
	if _, err := StartDebug("256.0.0.1:99999", DebugSource{}); err == nil {
		t.Error("bad address accepted")
	}
}

// TestDebugServerMetrics covers the Prometheus view: the obs default
// registry (including the par pool/gang gauges its init registers),
// the trace counter family, the exposition content type, and the
// index line.
func TestDebugServerMetrics(t *testing.T) {
	tr := trace.NewVirtual(1)
	tr.Rank(0).Add(trace.CounterMessages, 7)
	tr.Rank(0).Add(trace.CounterBytesSent, 4096)
	obs.Default.NewCounter("bgpvr_debug_test_total", "debug server test").Inc()
	par.For(2, 4, func(int) {}) // make the pool gauges nonzero

	srv, err := StartDebug("127.0.0.1:0", DebugSource{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Errorf("/metrics content type %q", ct)
	}
	body := string(b)
	for _, want := range []string{
		"# TYPE bgpvr_par_pool_speedup gauge",
		"bgpvr_par_pool_busy_seconds ",
		"bgpvr_par_gang_runs_total ",
		"bgpvr_debug_test_total 1",
		"# TYPE bgpvr_trace_events_total counter",
		`bgpvr_trace_events_total{counter="messages"} 7`,
		`bgpvr_trace_events_total{counter="bytes sent"} 4096`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	if code, body := get(t, base+"/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index missing /metrics: status %d body %q", code, body)
	}

}

// TestDebugServerMethodNotAllowed pins the read-only contract: POST
// (or anything but GET/HEAD) on a view answers 405 with an Allow
// header instead of running the handler.
func TestDebugServerMethodNotAllowed(t *testing.T) {
	srv, err := StartDebug("127.0.0.1:0", DebugSource{Tracer: trace.NewVirtual(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr
	for _, path := range []string{"/", "/metrics"} {
		resp, err := http.Post(base+path, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s status %d, want 405", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
			t.Errorf("POST %s Allow header %q", path, allow)
		}
	}
	// HEAD stays allowed.
	resp, err := http.Head(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("HEAD /metrics status %d, want 200", resp.StatusCode)
	}
}

// TestDebugServerIndexAndExtras pins the discoverability contract: the
// index page lists every registered endpoint including caller-supplied
// extras, extras are mounted as-is (their own method policy), and the
// built-in views stay read-only.
func TestDebugServerIndexAndExtras(t *testing.T) {
	srv, err := StartDebug("127.0.0.1:0", DebugSource{
		Extra: []DebugEndpoint{
			{Path: "/status", Desc: "service status", Handler: http.HandlerFunc(
				func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, "status ok") })},
			{Path: "/render", Desc: "render API", Handler: http.HandlerFunc(
				func(w http.ResponseWriter, r *http.Request) {
					if r.Method != http.MethodPost {
						http.Error(w, "POST only", http.StatusMethodNotAllowed)
						return
					}
					fmt.Fprint(w, "rendered")
				})},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr

	code, body := get(t, base+"/")
	if code != http.StatusOK {
		t.Fatalf("index status %d", code)
	}
	for _, want := range []string{"/debug/pprof/", "/debug/vars", "/metrics", "/status", "/render"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %s:\n%s", want, body)
		}
	}
	// A path no view registers, such as /runs, is the index's 404.
	if code, _ := get(t, base+"/runs"); code != http.StatusNotFound {
		t.Errorf("GET /runs status %d, want 404", code)
	}
	if !strings.Contains(body, "service status") {
		t.Errorf("index missing the extra endpoint's description:\n%s", body)
	}

	// HTML when asked for.
	req, _ := http.NewRequest(http.MethodGet, base+"/", nil)
	req.Header.Set("Accept", "text/html")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Errorf("Accept: text/html got Content-Type %q", ct)
	}
	if !strings.Contains(string(b), `<a href="/status">`) {
		t.Errorf("HTML index missing the /status link:\n%s", b)
	}

	// The extra is served, with its own method policy (POST works).
	code, body = get(t, base+"/status")
	if code != http.StatusOK || body != "status ok" {
		t.Errorf("/status = %d %q", code, body)
	}
	resp, err = http.Post(base+"/render", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("POST /render status %d, want 200 (extras own their methods)", resp.StatusCode)
	}
}

// TestDebugServerDropsStalledRequest pins ReadHeaderTimeout: a client
// that sends half a request line and stalls is disconnected by the
// server instead of holding a goroutine and a descriptor forever, and a
// client that finishes its request in time is still served.
func TestDebugServerDropsStalledRequest(t *testing.T) {
	readHeaderTimeout = 50 * time.Millisecond
	defer func() { readHeaderTimeout = ReadHeaderTimeout }()
	srv, err := StartDebug("127.0.0.1:0", DebugSource{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.srv.ReadHeaderTimeout != readHeaderTimeout || srv.srv.IdleTimeout != IdleTimeout {
		t.Errorf("server timeouts = %v / %v", srv.srv.ReadHeaderTimeout, srv.srv.IdleTimeout)
	}
	conn, err := net.Dial("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metr"); err != nil {
		t.Fatal(err)
	}
	// The client's own deadline is far beyond the server's: only the
	// server closing the connection (after a 400 or in silence, by Go
	// version) ends this read without a timeout error.
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if reply, err := io.ReadAll(conn); err != nil {
		t.Errorf("stalled request: %v after %q; want the server to close the connection", err, reply)
	}
	if code, _ := get(t, "http://"+srv.Addr+"/metrics"); code != http.StatusOK {
		t.Errorf("prompt request after the drop: status %d", code)
	}
}
