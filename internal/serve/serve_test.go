package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bgpvr/internal/obs"
)

// testServer builds a server on a private registry with a quiet
// logger and small defaults suited to unit tests.
func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	return New(cfg)
}

func postRender(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/render", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// wireImage reads a /render reply's image the way a client does: the
// JSON string, then standard base64. It holds the wire bytes to what
// they were when RenderResponse.ImagePPM was that string.
func wireImage(raw []byte) ([]byte, error) {
	var rr struct {
		ImagePPM string `json:"image_ppm"`
	}
	if err := json.Unmarshal(raw, &rr); err != nil {
		return nil, err
	}
	return base64.StdEncoding.DecodeString(rr.ImagePPM)
}

// TestRenderEndToEnd pins the happy path: a real-mode render answers
// 200 with a per-request perf report carrying the request ID, the
// X-Request-ID header round-trips, and a second identical request hits
// the field cache.
func TestRenderEndToEnd(t *testing.T) {
	s := testServer(t, Config{MaxConcurrent: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"n": 16, "img": 32, "procs": 2}`
	resp, b := postRender(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID header on the response")
	}
	var rr RenderResponse
	if err := json.Unmarshal(b, &rr); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, b)
	}
	if rr.RequestID == "" || rr.Mode != "real" || rr.Samples == 0 {
		t.Errorf("response = id %q mode %q samples %d", rr.RequestID, rr.Mode, rr.Samples)
	}
	if rr.Report == nil {
		t.Fatal("no perf report in the response")
	}
	if rr.Report.Config["request_id"] != rr.RequestID {
		t.Errorf("report request_id %q != response %q", rr.Report.Config["request_id"], rr.RequestID)
	}
	if len(rr.Report.Phases) == 0 {
		t.Error("perf report has no phase breakdown")
	}
	// Scoped to the frame: the runtime section would be the service's
	// uptime and the process-wide heap.
	if rr.Report.Runtime != nil {
		t.Errorf("per-request report carries a runtime section: %+v", rr.Report.Runtime)
	}
	if rr.Times.Total <= 0 {
		t.Errorf("total time %v", rr.Times.Total)
	}

	// Same scene again: every block field must hit.
	fh0 := s.fields.hits.Value()
	resp, b = postRender(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second request status %d: %s", resp.StatusCode, b)
	}
	if got := s.fields.hits.Value() - fh0; got != 2 {
		t.Errorf("field cache hits on repeat = %d, want 2 (one per rank)", got)
	}

	// A supplied request ID round-trips into the report.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/render", strings.NewReader(body))
	req.Header.Set("X-Request-ID", "my-req-7")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err := json.Unmarshal(b2, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.RequestID != "my-req-7" {
		t.Errorf("supplied request ID not honored: %q", rr.RequestID)
	}
}

// TestRenderModelMode pins the model path at a scale real mode cannot
// run.
func TestRenderModelMode(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, b := postRender(t, ts, `{"mode": "model", "n": 1120, "img": 1600, "procs": 4096}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var rr RenderResponse
	if err := json.Unmarshal(b, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Mode != "model" || rr.Times.Total <= 0 {
		t.Errorf("model response: mode %q total %v", rr.Mode, rr.Times.Total)
	}
	if rr.Report == nil || rr.Report.Config["procs"] != "4096" {
		t.Errorf("model report config: %+v", rr.Report)
	}
}

// TestRenderModelPricesItsAlgo pins that a modeled frame prices the
// compositor the request names: binary swap's schedule answers another
// composite time than direct-send's, and radix-k and the serial gather,
// which have no modeled schedule, are the client's error.
func TestRenderModelPricesItsAlgo(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	composite := map[string]float64{}
	for _, algo := range []string{"direct", "binaryswap"} {
		resp, b := postRender(t, ts, `{"mode":"model","n":448,"img":1024,"procs":1024,"algo":"`+algo+`"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("algo %s: status %d: %s", algo, resp.StatusCode, b)
		}
		var rr RenderResponse
		if err := json.Unmarshal(b, &rr); err != nil {
			t.Fatal(err)
		}
		composite[algo] = rr.Times.Composite
	}
	if composite["direct"] <= 0 || composite["binaryswap"] == composite["direct"] {
		t.Errorf("composite direct %v s, binaryswap %v s: want two different prices", composite["direct"], composite["binaryswap"])
	}
	for _, algo := range []string{"radixk", "gather"} {
		resp, b := postRender(t, ts, `{"mode":"model","n":448,"img":1024,"procs":1024,"algo":"`+algo+`"}`)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "model mode prices") {
			t.Errorf("algo %s: status %d (%s), want 400 naming what model mode prices", algo, resp.StatusCode, b)
		}
	}
}

// TestRenderValidation pins the 400 contract.
func TestRenderValidation(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, body := range []string{
		`not json`,
		`{"mode": "banana"}`,
		`{"n": 4096}`,                    // over real-mode bound
		`{"procs": 1000}`,                // over real-mode bound
		`{"algo": "quantum"}`,            //
		`{"deadline_ms": -5}`,            //
		`{"deadline_ms": 9300000000000}`, // wraps time.Duration negative
		`{"deadline_ms": 86400001}`,      // over a day
		`{"unknown_field": 1}`,           // DisallowUnknownFields
		`{"skip_empty_space": true}`,     // unknown: the renderer has no skipping
		`{"n": 16, "m": 99}`,             // m > procs
	} {
		resp, b := postRender(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d (%s), want 400", body, resp.StatusCode, b)
		}
	}
	// GET /render is refused but the endpoint stays mounted (extras own
	// their methods).
	resp, err := http.Get(ts.URL + "/render")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /render = %d, want 405", resp.StatusCode)
	}
}

// Binary swap on a process count that is not a power of two is the
// client's error, refused with the other bad requests before a frame
// starts, not a server error after every rank has rendered.
func TestRenderRefusesBinarySwapOnOddProcs(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, b := postRender(t, ts, `{"algo": "binaryswap", "procs": 3, "n": 16}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "power of two") {
		t.Errorf("status %d (%s), want 400 naming the power of two", resp.StatusCode, b)
	}
}

// TestQueueFull429 pins admission control: with one slot and zero
// queue depth, a second concurrent request is rejected immediately
// with 429 and the reject counter moves.
func TestQueueFull429(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	cfg := Config{MaxConcurrent: 1, QueueDepth: -1} // -1 normalizes to 0
	cfg.renderGate = func() {
		entered <- struct{}{}
		<-release
	}
	s := testServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		resp, _ := postRender(t, ts, `{"n": 16, "procs": 1}`)
		done <- resp.StatusCode
	}()
	<-entered // first request holds the only slot

	resp, b := postRender(t, ts, `{"n": 16, "procs": 1}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("second request = %d (%s), want 429", resp.StatusCode, b)
	}
	var er errorReply
	if err := json.Unmarshal(b, &er); err != nil || er.Error == "" || er.RequestID == "" {
		t.Errorf("429 body not a structured error: %s", b)
	}
	if got := s.rejected.Value(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Errorf("first request = %d, want 200", code)
	}
}

// TestDeadline pins both 503 paths: expiring while queued, and
// expiring mid-render (which must return the partial perf report).
func TestDeadline(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 2)
	cfg := Config{MaxConcurrent: 1, QueueDepth: 2}
	cfg.renderGate = func() {
		entered <- struct{}{}
		<-release
	}
	s := testServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := make(chan []byte, 1)
	go func() {
		// Holds the slot long enough for its own 50ms deadline to expire
		// mid-render: the gate releases only after the queued request
		// timed out below.
		_, b := postRender(t, ts, `{"n": 16, "procs": 1, "deadline_ms": 50}`)
		first <- b
	}()
	<-entered

	// Queued behind the gate with a short deadline: expires in queue.
	resp, b := postRender(t, ts, `{"n": 16, "procs": 1, "deadline_ms": 80}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("queued request = %d (%s), want 503", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), "queued") {
		t.Errorf("queue-expiry error not labeled: %s", b)
	}

	// Release the gate: the first request resumes with a dead context
	// and must answer 503 with a partial report.
	close(release)
	var er errorReply
	if err := json.Unmarshal(<-first, &er); err != nil {
		t.Fatal(err)
	}
	if er.Report == nil {
		t.Fatal("mid-render deadline reply carries no partial report")
	}
	if er.Report.Config["partial"] != "true" {
		t.Errorf("partial report not marked: %+v", er.Report.Config)
	}
	if er.Report.Runtime != nil {
		t.Errorf("partial report carries a runtime section: %+v", er.Report.Runtime)
	}
	if got := s.deadline.Value(); got != 2 {
		t.Errorf("deadline counter = %d, want 2", got)
	}
}

// TestStatusQuantiles pins /status against known observations: inject
// a deterministic latency distribution into the /render histogram and
// check the reported p50/p99 match the estimator, and the by-code
// counts match the counters.
func TestStatusQuantiles(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	hist := s.latency.With(obs.Labels("endpoint", "/render"))
	for i := 0; i < 100; i++ {
		hist.Observe(0.010) // all observations in the (8ms, 16ms] bucket
	}
	s.requests.With(obs.Labels("endpoint", "/render", "code", "200")).Add(99)
	s.requests.With(obs.Labels("endpoint", "/render", "code", "429")).Inc()

	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/status = %d", resp.StatusCode)
	}
	var st StatusReply
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("bad status JSON: %v\n%s", err, b)
	}
	var render *EndpointStatus
	for i := range st.Endpoints {
		if st.Endpoints[i].Endpoint == "/render" {
			render = &st.Endpoints[i]
		}
	}
	if render == nil {
		t.Fatalf("/render missing from status endpoints: %s", b)
	}
	if render.ByCode["200"] != 99 || render.ByCode["429"] != 1 || render.Requests != 100 {
		t.Errorf("by-code counts = %+v", render)
	}
	// All 100 observations in (8, 16] ms: quantiles interpolate within
	// that bucket, so p50 = 12ms and p99 = 15.92ms exactly.
	if got := render.P50Ms; got != 12 {
		t.Errorf("p50 = %v ms, want 12", got)
	}
	if got := render.P99Ms; got != 15.92 {
		t.Errorf("p99 = %v ms, want 15.92", got)
	}
	if got := render.MeanMs; math.Abs(got-10) > 1e-9 {
		t.Errorf("mean = %v ms, want 10", got)
	}

	// Text view renders the same numbers.
	resp, err = http.Get(ts.URL + "/status?text=1")
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(tb), "/render") || !strings.Contains(string(tb), "15.92") ||
		!strings.Contains(string(tb), "turbulence 0 hits / 0 misses (0 entries, 0 bytes)") {
		t.Errorf("text status missing expected fields:\n%s", tb)
	}
	for _, key := range []string{"turbulence_hits", "turbulence_misses", "turbulence_entries", "turbulence_bytes"} {
		if !strings.Contains(string(b), `"`+key+`"`) {
			t.Errorf("status JSON missing %s:\n%s", key, b)
		}
	}
}

// TestMetricsExposition pins the acceptance criterion that the RED
// series appear at /metrics with correct bucket counts. The server
// must use the default registry for /metrics to see it, so assert on
// deltas of uniquely-labeled series.
func TestMetricsExposition(t *testing.T) {
	s := New(Config{Workers: 1, Log: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, b := postRender(t, ts, `{"n": 16, "img": 32, "procs": 1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("render = %d: %s", resp.StatusCode, b)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(mb)
	for _, want := range []string{
		`bgpvr_serve_requests_total{endpoint="/render",code="200"}`,
		`bgpvr_serve_latency_seconds_bucket{endpoint="/render",le=`,
		`bgpvr_serve_latency_seconds_count{endpoint="/render"}`,
		"bgpvr_serve_inflight 0",
		"bgpvr_serve_queue_depth 0",
		`bgpvr_serve_cache_misses_total{cache="field"}`,
		`bgpvr_serve_cache_misses_total{cache="turbulence"}`,
		"bgpvr_serve_rejected_total",
		"bgpvr_serve_deadline_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestIncludeImage pins the base64 PPM payload.
func TestIncludeImage(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, b := postRender(t, ts, `{"n": 16, "img": 24, "procs": 1, "include_image": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	dec, err := wireImage(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) == 0 {
		t.Fatal("include_image set but no image returned")
	}
	if !bytes.HasPrefix(dec, []byte("P6\n24 24\n")) {
		t.Errorf("decoded payload is not a 24x24 PPM: %q", dec[:min(20, len(dec))])
	}
}

// TestGracefulShutdown pins the drain: an in-flight render completes
// during Shutdown, and the shutdown flag is raised for the flight
// recorder.
func TestGracefulShutdown(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	cfg := Config{MaxConcurrent: 1}
	cfg.renderGate = func() {
		entered <- struct{}{}
		<-release
	}
	s := testServer(t, cfg)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	url := "http://" + s.Addr()

	got := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/render", "application/json",
			strings.NewReader(`{"n": 16, "procs": 1}`))
		if err != nil {
			got <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		got <- resp.StatusCode
	}()
	<-entered

	shut := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { shut <- s.Shutdown(ctx) }()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned (%v) with a request in flight", err)
	default:
	}
	if !obs.ShuttingDown() {
		t.Error("Shutdown did not raise the obs shutdown flag")
	}
	close(release)
	if code := <-got; code != http.StatusOK {
		t.Errorf("in-flight request = %d, want 200", code)
	}
	if err := <-shut; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestConcurrentHammer drives mixed traffic through every endpoint at
// once — the -race leg of CI runs this with the detector on.
func TestConcurrentHammer(t *testing.T) {
	s := testServer(t, Config{MaxConcurrent: 4, QueueDepth: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var wg sync.WaitGroup
	var ok, other atomicCounter
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				switch w % 3 {
				case 0:
					resp, _ := postRender(t, ts, `{"n": 16, "img": 16, "procs": 2}`)
					if resp.StatusCode == http.StatusOK {
						ok.add(1)
					} else {
						other.add(1)
					}
				case 1:
					resp, err := http.Get(ts.URL + "/status")
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				default:
					resp, err := http.Get(ts.URL + "/metrics")
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if ok.load() == 0 {
		t.Errorf("no render succeeded under load (ok=%d other=%d)", ok.load(), other.load())
	}
}

type atomicCounter struct {
	mu sync.Mutex
	n  int64
}

func (c *atomicCounter) add(d int64) { c.mu.Lock(); c.n += d; c.mu.Unlock() }
func (c *atomicCounter) load() int64 { c.mu.Lock(); defer c.mu.Unlock(); return c.n }

// TestStartDropsStalledRequest pins the service's ReadHeaderTimeout: a
// client that sends half a request line and stalls is disconnected by
// the server, and a prompt client is still served.
func TestStartDropsStalledRequest(t *testing.T) {
	s := testServer(t, Config{})
	s.readHeaderTimeout = 50 * time.Millisecond
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /rend"); err != nil {
		t.Fatal(err)
	}
	// The client's own deadline is far beyond the server's: only the
	// server closing the connection (after a 400 or in silence, by Go
	// version) ends this read without a timeout error.
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if reply, err := io.ReadAll(conn); err != nil {
		t.Errorf("stalled request: %v after %q; want the server to close the connection", err, reply)
	}
	resp, err := http.Get("http://" + s.Addr() + "/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("prompt request after the drop: status %d", resp.StatusCode)
	}
}
