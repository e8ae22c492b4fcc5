package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bgpvr/internal/critpath"
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

func TestDebugServer(t *testing.T) {
	tr := trace.NewVirtual(1)
	tr.Rank(0).Add(trace.CounterMessages, 7)
	nt := &NetTelemetry{}
	nt.ObserveSend(1024)
	_, u := goldenUsage()
	nt.Links = u

	srv, err := StartDebug("127.0.0.1:0", DebugSource{Tracer: tr, Net: nt})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr

	code, body := get(t, base+"/telemetry")
	if code != http.StatusOK {
		t.Fatalf("/telemetry status %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/telemetry not JSON: %v\n%s", err, body)
	}
	if snap.Counters["messages"] != 7 {
		t.Errorf("snapshot counters = %v", snap.Counters)
	}
	if len(snap.Histograms) == 0 || snap.Histograms[0].Name != "send_sizes" {
		t.Errorf("snapshot histograms = %+v", snap.Histograms)
	}
	if snap.Network == nil || snap.Network.ActiveLinks == 0 {
		t.Errorf("snapshot network = %+v", snap.Network)
	}

	code, body = get(t, base+"/debug/vars")
	if code != http.StatusOK || !strings.Contains(body, `"bgpvr"`) {
		t.Errorf("/debug/vars status %d, bgpvr var present: %v", code, strings.Contains(body, `"bgpvr"`))
	}
	code, body = get(t, base+"/")
	if code != http.StatusOK || !strings.Contains(body, "/telemetry") {
		t.Errorf("index status %d body %q", code, body)
	}
	if code, _ := get(t, base+"/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path status %d", code)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// A second server must not panic on duplicate expvar publication and
	// must serve the new source.
	tr2 := trace.NewVirtual(1)
	tr2.Rank(0).Add(trace.CounterMessages, 99)
	srv2, err := StartDebug("127.0.0.1:0", DebugSource{Tracer: tr2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	_, body = get(t, "http://"+srv2.Addr+"/debug/vars")
	if !strings.Contains(body, `"messages": 99`) && !strings.Contains(body, `"messages":99`) {
		t.Errorf("expvar snapshot not re-pointed at new source:\n%s", body)
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

// TestDebugServerCritPath covers the /critpath view: 404 with no
// source attached, 503 while the analysis is pending, then JSON and
// the ?text=1 plain report once it exists.
func TestDebugServerCritPath(t *testing.T) {
	srvNone, err := StartDebug("127.0.0.1:0", DebugSource{})
	if err != nil {
		t.Fatal(err)
	}
	defer srvNone.Close()
	if code, _ := get(t, "http://"+srvNone.Addr+"/critpath"); code != http.StatusNotFound {
		t.Errorf("no source: status %d, want 404", code)
	}

	var an *critpath.Analysis
	srv, err := StartDebug("127.0.0.1:0", DebugSource{Crit: func() *critpath.Analysis { return an }})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr
	if code, _ := get(t, base+"/critpath"); code != http.StatusServiceUnavailable {
		t.Errorf("pending analysis: status %d, want 503", code)
	}

	g := critpath.NewGraph(2)
	g.AddNode(0, trace.PhaseRender, "render", 0, 2)
	g.AddNode(1, trace.PhaseRender, "render", 0, 1)
	g.AddNode(1, trace.PhaseComposite, "composite", 2, 1)
	g.AddDep(critpath.Dep{Kind: critpath.DepFragment, Src: 0, Dst: 1, SrcT: 2, DstT: 2})
	an = critpath.Analyze(g, 2)

	code, body := get(t, base+"/critpath")
	if code != http.StatusOK {
		t.Fatalf("/critpath status %d", code)
	}
	var got critpath.Analysis
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("/critpath not JSON: %v\n%s", err, body)
	}
	if got.Ranks != 2 || got.PathSec != 3 {
		t.Errorf("analysis over the wire: ranks=%d path=%v", got.Ranks, got.PathSec)
	}
	code, body = get(t, base+"/critpath?text=1")
	if code != http.StatusOK || !strings.Contains(body, "critical path") {
		t.Errorf("text view: status %d body %q", code, body)
	}
	if code, body := get(t, base+"/"); code != http.StatusOK || !strings.Contains(body, "/critpath") {
		t.Errorf("index missing /critpath: status %d body %q", code, body)
	}
}

// TestDebugServerFidelity covers the /fidelity view: 404 with no
// source, 503 while pending, then JSON and the ?text=1 table.
func TestDebugServerFidelity(t *testing.T) {
	srvNone, err := StartDebug("127.0.0.1:0", DebugSource{})
	if err != nil {
		t.Fatal(err)
	}
	defer srvNone.Close()
	if code, _ := get(t, "http://"+srvNone.Addr+"/fidelity"); code != http.StatusNotFound {
		t.Errorf("no source: status %d, want 404", code)
	}

	var fs *FidelityStat
	srv, err := StartDebug("127.0.0.1:0", DebugSource{Fidelity: func() *FidelityStat { return fs }})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr
	if code, _ := get(t, base+"/fidelity"); code != http.StatusServiceUnavailable {
		t.Errorf("pending scorecard: status %d, want 503", code)
	}

	relerr := 0.07
	fs = &FidelityStat{Score: 0.9, Pass: 1, Warn: 1, Claims: []ClaimStat{
		{ID: "fig3/best-total", Figure: "fig3", Kind: "point", Paper: "5.9 s",
			Measured: "6.33 s", RelErr: &relerr, Status: "pass"},
		{ID: "fig6/io-dominates", Figure: "fig6", Kind: "shape", Paper: "I/O dominates",
			Measured: "97% at 16K", Status: "warn"},
	}}
	code, body := get(t, base+"/fidelity")
	if code != http.StatusOK {
		t.Fatalf("/fidelity status %d", code)
	}
	var got FidelityStat
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("/fidelity not JSON: %v\n%s", err, body)
	}
	if got.Score != 0.9 || len(got.Claims) != 2 || *got.Claims[0].RelErr != relerr {
		t.Errorf("scorecard over the wire: %+v", got)
	}
	code, body = get(t, base+"/fidelity?text=1")
	if code != http.StatusOK || !strings.Contains(body, "fig3/best-total") || !strings.Contains(body, "score 0.900") {
		t.Errorf("text view: status %d body %q", code, body)
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

	// The /telemetry snapshot mirrors the pool/gang accumulators.
	_, body = get(t, base+"/telemetry")
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/telemetry not JSON: %v\n%s", err, body)
	}
	if snap.Parallel == nil || snap.Parallel.PoolWallSeconds <= 0 {
		t.Errorf("snapshot parallel section = %+v", snap.Parallel)
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
	for _, path := range []string{"/", "/telemetry", "/metrics", "/critpath", "/fidelity", "/runs"} {
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

// TestDebugServerRuns covers /runs: 404 with no store, 503 before the
// file exists, then the JSONL stream once it does.
func TestDebugServerRuns(t *testing.T) {
	srvNone, err := StartDebug("127.0.0.1:0", DebugSource{})
	if err != nil {
		t.Fatal(err)
	}
	defer srvNone.Close()
	if code, _ := get(t, "http://"+srvNone.Addr+"/runs"); code != http.StatusNotFound {
		t.Errorf("no store: status %d, want 404", code)
	}

	path := filepath.Join(t.TempDir(), "runs.jsonl")
	srv, err := StartDebug("127.0.0.1:0", DebugSource{RunsPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr
	if code, _ := get(t, base+"/runs"); code != http.StatusServiceUnavailable {
		t.Errorf("missing file: status %d, want 503", code)
	}
	line := `{"id":"abc123","report":{"schema":3,"total_sec":1}}` + "\n"
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, base+"/runs")
	if code != http.StatusOK || body != line {
		t.Errorf("/runs status %d body %q", code, body)
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
	for _, want := range []string{"/debug/pprof/", "/telemetry", "/metrics", "/critpath", "/fidelity", "/runs", "/status", "/render"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %s:\n%s", want, body)
		}
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
	if _, err := io.WriteString(conn, "GET /telem"); err != nil {
		t.Fatal(err)
	}
	// The client's own deadline is far beyond the server's: only the
	// server closing the connection (after a 400 or in silence, by Go
	// version) ends this read without a timeout error.
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if reply, err := io.ReadAll(conn); err != nil {
		t.Errorf("stalled request: %v after %q; want the server to close the connection", err, reply)
	}
	if code, _ := get(t, "http://"+srv.Addr+"/telemetry"); code != http.StatusOK {
		t.Errorf("prompt request after the drop: status %d", code)
	}
}
