package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// get fetches path from ts and returns the status code and body.
func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestSlowRequestTraceLifecycle is the tracing acceptance test: a
// deliberately slow request (the render gate sleeps past the SLO) must
// be tail-sampled with reason "slo", queryable at /traces/{id} as a
// span tree whose top-level durations fit inside the observed latency,
// stamped as an exemplar on the latency histogram, and dumped as a
// diagnostic bundle under DiagDir.
func TestSlowRequestTraceLifecycle(t *testing.T) {
	diagDir := t.TempDir()
	cfg := Config{
		MaxConcurrent: 2,
		SLO:           10 * time.Millisecond,
		DiagDir:       diagDir,
		TraceSampleN:  -1, // only the tail rules keep
		Workers:       1,
	}
	cfg.renderGate = func() { time.Sleep(30 * time.Millisecond) }
	// The default registry backs /metrics, so the exemplar assertion
	// can read it end to end (cf. TestMetricsExposition).
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/render",
		strings.NewReader(`{"n": 16, "img": 32, "procs": 2}`))
	req.Header.Set("X-Request-ID", "slow-1")
	t0 := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	wallSec := time.Since(t0).Seconds()
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("render = %d: %s", resp.StatusCode, body)
	}

	// The per-request report carries the retention verdict.
	var rr RenderResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Report == nil || rr.Report.Trace == nil {
		t.Fatalf("no trace verdict in the report: %s", body)
	}
	tv := rr.Report.Trace
	if !tv.Retained || tv.Reason != "slo" || tv.TraceID != "slow-1" || tv.Spans == 0 {
		t.Errorf("trace verdict = %+v, want retained slo slow-1", tv)
	}

	// /traces lists it with the store occupancy.
	code, b := get(t, ts, "/traces")
	if code != http.StatusOK {
		t.Fatalf("/traces = %d: %s", code, b)
	}
	var list TracesReply
	if err := json.Unmarshal(b, &list); err != nil {
		t.Fatal(err)
	}
	if list.Store.Entries < 1 || list.Store.ByReason["slo"] < 1 {
		t.Errorf("store stats = %+v, want >=1 entry kept as slo", list.Store)
	}
	found := false
	for _, tr := range list.Traces {
		if tr.ID == "slow-1" && tr.Reason == "slo" && tr.Status == 200 {
			found = true
		}
	}
	if !found {
		t.Errorf("slow-1 not listed: %s", b)
	}

	// /traces/{id}: the span tree holds the request's lifecycle —
	// admission (with queue-wait nested inside), io, render, composite
	// — and the top-level rank-0 durations fit in the observed latency.
	code, b = get(t, ts, "/traces/slow-1")
	if code != http.StatusOK {
		t.Fatalf("/traces/slow-1 = %d: %s", code, b)
	}
	var detail TraceDetail
	if err := json.Unmarshal(b, &detail); err != nil {
		t.Fatal(err)
	}
	roots := map[string]bool{}
	var rank0Sum float64
	for _, n := range detail.Tree {
		if n.Rank == 0 {
			roots[n.Name] = true
			rank0Sum += n.DurSec
		}
	}
	for _, want := range []string{"admission", "io", "render", "composite"} {
		if !roots[want] {
			t.Errorf("span tree missing top-level %q span: %s", want, b)
		}
	}
	for _, n := range detail.Tree {
		if n.Name != "admission" {
			continue
		}
		sub := false
		for _, c := range n.Children {
			sub = sub || c.Name == "queue-wait"
		}
		if !sub {
			t.Errorf("queue-wait not nested under admission: %s", b)
		}
	}
	if rank0Sum <= 0 || rank0Sum > wallSec {
		t.Errorf("rank-0 span durations sum to %.4fs, want within (0, %.4fs]", rank0Sum, wallSec)
	}

	// Chrome trace_event export of the same trace.
	code, b = get(t, ts, "/traces/slow-1?format=chrome")
	if code != http.StatusOK || !strings.Contains(string(b), `"traceEvents"`) {
		t.Errorf("chrome export = %d: %.80s", code, b)
	}

	// The latency histogram carries the trace ID as a bucket exemplar.
	code, b = get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.Contains(string(b), `# {trace_id="slow-1"}`) {
		t.Error("/metrics missing the slow-1 exemplar on the latency histogram")
	}

	// The SLO breach wrote a diagnostic bundle.
	path := filepath.Join(diagDir, "slo-slow-1.json")
	db, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("diag bundle: %v", err)
	}
	var bundle diagBundle
	if err := json.Unmarshal(db, &bundle); err != nil {
		t.Fatalf("diag bundle not JSON: %v", err)
	}
	if bundle.RequestID != "slow-1" || len(bundle.Spans) == 0 || len(bundle.Metrics) == 0 {
		t.Errorf("diag bundle = id %q, %d spans, %d metrics", bundle.RequestID, len(bundle.Spans), len(bundle.Metrics))
	}
	if bundle.DurationMs <= bundle.SLOMs {
		t.Errorf("bundle duration %.2fms not over SLO %.2fms", bundle.DurationMs, bundle.SLOMs)
	}

	// /status reports the store occupancy.
	code, b = get(t, ts, "/status")
	if code != http.StatusOK {
		t.Fatalf("/status = %d", code)
	}
	var st StatusReply
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.TraceStore == nil || st.TraceStore.Entries < 1 || st.TraceStore.ByReason["slo"] < 1 {
		t.Errorf("status trace_store = %+v", st.TraceStore)
	}
	code, b = get(t, ts, "/status?text=1")
	if code != http.StatusOK || !strings.Contains(string(b), "traces:") {
		t.Errorf("text status missing trace-store line:\n%s", b)
	}
}

// TestTracingOffBitIdentical pins the zero-cost-off contract: with the
// trace store disabled the rendered image is bit-identical to the
// traced server's, the report carries no verdict, and /traces answers
// 404.
func TestTracingOffBitIdentical(t *testing.T) {
	body := `{"n": 16, "img": 24, "procs": 2, "include_image": true, "seed": 5}`
	render := func(cfg Config) (RenderResponse, []byte, *Server, *httptest.Server) {
		s := testServer(t, cfg)
		ts := httptest.NewServer(s.Handler())
		resp, b := postRender(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("render = %d: %s", resp.StatusCode, b)
		}
		var rr RenderResponse
		if err := json.Unmarshal(b, &rr); err != nil {
			t.Fatal(err)
		}
		ppm, err := wireImage(b)
		if err != nil {
			t.Fatal(err)
		}
		return rr, ppm, s, ts
	}

	on, onPPM, _, tsOn := render(Config{TraceSampleN: 1}) // keep everything
	defer tsOn.Close()
	off, offPPM, sOff, tsOff := render(Config{TraceBudgetMB: -1})
	defer tsOff.Close()

	if len(onPPM) == 0 || !bytes.Equal(onPPM, offPPM) {
		t.Error("image differs between tracing on and off")
	}
	if on.Report.Trace == nil || !on.Report.Trace.Retained {
		t.Errorf("traced server verdict = %+v, want retained (rand keep-all)", on.Report.Trace)
	}
	if off.Report.Trace != nil {
		t.Errorf("tracing-off report carries a verdict: %+v", off.Report.Trace)
	}
	if sOff.traces != nil {
		t.Error("TraceBudgetMB -1 still built a store")
	}
	if code, _ := get(t, tsOff, "/traces"); code != http.StatusNotFound {
		t.Errorf("/traces with tracing off = %d, want 404", code)
	}
	if code, _ := get(t, tsOff, "/traces/whatever"); code != http.StatusNotFound {
		t.Errorf("/traces/{id} with tracing off = %d, want 404", code)
	}

	// An unknown ID on the traced server is a 404 too (distinct body).
	if code, b := get(t, tsOn, "/traces/nope"); code != http.StatusNotFound ||
		!strings.Contains(string(b), "not retained") {
		t.Errorf("unknown trace = %d %s", code, b)
	}
}

// TestDebugIndexListsAllRoutes is the table-driven index check: every
// route the service mounts must appear on the debug index page, so the
// surface is discoverable without reading the source.
func TestDebugIndexListsAllRoutes(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, b := get(t, ts, "/?text=1")
	if code != http.StatusOK {
		t.Fatalf("index = %d", code)
	}
	index := string(b)
	for _, route := range []string{
		"/render",
		"/status",
		"/traces",
		"/traces/{id}",
		"/metrics",
		"/debug/pprof/",
		"/debug/vars",
	} {
		if !strings.Contains(index, route) {
			t.Errorf("index missing route %s:\n%s", route, index)
		}
	}
}

// TestErrorTraceRetained pins tail sampling at the service level: a
// 429 rejection is always kept (reason "error"), with the admission
// span on its trace.
func TestErrorTraceRetained(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	cfg := Config{MaxConcurrent: 1, QueueDepth: -1, TraceSampleN: -1}
	cfg.renderGate = func() {
		entered <- struct{}{}
		<-release
	}
	s := testServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		postRender(t, ts, `{"n": 16, "procs": 1}`)
		close(done)
	}()
	<-entered

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/render",
		strings.NewReader(`{"n": 16, "procs": 1}`))
	req.Header.Set("X-Request-ID", "rejected-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429", resp.StatusCode)
	}
	close(release)
	<-done

	tr, ok := s.traces.get("rejected-1")
	if !ok || tr.reason != "error" || tr.status != http.StatusTooManyRequests {
		t.Fatalf("rejected request not retained as error: %+v ok=%v", tr, ok)
	}
	seen := map[string]bool{}
	for _, e := range tr.tracer.Events() {
		seen[e.Name] = true
	}
	if !seen["admission"] || !seen["reply"] {
		t.Errorf("429 trace missing the admission or the reply span: %v", seen)
	}
}

// TestRetainedTraceHoldsReplySpan pins the order of a request's last
// steps: the verdict is decided, then the reply is written inside a
// "reply" span on rank 0, and only then is the trace retained, so the
// retained tree holds one span more than the verdict counted.
func TestRetainedTraceHoldsReplySpan(t *testing.T) {
	s := testServer(t, Config{TraceSampleN: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/render",
		strings.NewReader(`{"n": 16, "img": 32, "procs": 2}`))
	req.Header.Set("X-Request-ID", "reply-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var rr RenderResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Report == nil || rr.Report.Trace == nil || !rr.Report.Trace.Retained {
		t.Fatalf("no retained verdict in the reply: %s", body)
	}

	code, b := get(t, ts, "/traces/reply-1")
	if code != http.StatusOK {
		t.Fatalf("/traces/reply-1 = %d: %s", code, b)
	}
	var detail TraceDetail
	if err := json.Unmarshal(b, &detail); err != nil {
		t.Fatal(err)
	}
	replies := 0
	for _, n := range detail.Tree {
		if n.Name == "reply" && n.Rank == 0 {
			replies++
		}
	}
	if replies != 1 {
		t.Errorf("retained tree holds %d top-level rank-0 reply spans, want 1: %s", replies, b)
	}
	if detail.Spans != rr.Report.Trace.Spans+1 {
		t.Errorf("retained trace has %d spans, verdict counted %d: want one more, the reply",
			detail.Spans, rr.Report.Trace.Spans)
	}
	// The ring sizes a trace as it takes it in, so the charge shows
	// whether the reply span was already there.
	kept, _ := s.traces.get("reply-1")
	if st := s.traces.stats(); st.Bytes != estimateSize(kept) {
		t.Errorf("ring charged %d bytes for a trace of %d: it was retained before its reply span ended",
			st.Bytes, estimateSize(kept))
	}
}

// TestTracesReadDuringRenders reads retained traces, in the Chrome
// export, while /render requests complete and enter the ring. Run
// under -race in CI. Every trace a reader can see is whole: it already
// holds its reply span.
func TestTracesReadDuringRenders(t *testing.T) {
	s := testServer(t, Config{TraceSampleN: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	fetch := func(path string) (int, []byte, error) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, b, err
	}

	const callers, renders = 2, 4
	var renderers, readers sync.WaitGroup
	done := make(chan struct{})
	for c := 0; c < callers; c++ {
		renderers.Add(1)
		go func(c int) {
			defer renderers.Done()
			for i := 0; i < renders; i++ {
				req, _ := http.NewRequest(http.MethodPost, ts.URL+"/render",
					strings.NewReader(`{"n": 16, "img": 32, "procs": 2}`))
				req.Header.Set("X-Request-ID", fmt.Sprintf("c%d-%d", c, i))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("render c%d-%d = %d", c, i, resp.StatusCode)
				}
			}
		}(c)
	}
	var reads atomic.Int64
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				code, b, err := fetch("/traces")
				if err != nil || code != http.StatusOK {
					t.Errorf("/traces = %d, %v", code, err)
					return
				}
				var list TracesReply
				if err := json.Unmarshal(b, &list); err != nil {
					t.Error(err)
					return
				}
				for _, tr := range list.Traces {
					code, b, err := fetch("/traces/" + tr.ID + "?format=chrome")
					if err != nil || code != http.StatusOK {
						t.Errorf("/traces/%s = %d, %v", tr.ID, code, err)
						return
					}
					var chrome struct {
						TraceEvents []struct {
							Name string `json:"name"`
						} `json:"traceEvents"`
					}
					if err := json.Unmarshal(b, &chrome); err != nil {
						t.Errorf("%s: chrome export not JSON: %v", tr.ID, err)
						return
					}
					reply := false
					for _, e := range chrome.TraceEvents {
						reply = reply || e.Name == "reply"
					}
					if !reply {
						t.Errorf("%s: visible to readers before its reply span", tr.ID)
					}
					reads.Add(1)
				}
			}
		}()
	}
	renderers.Wait()
	close(done)
	readers.Wait()
	if st := s.traces.stats(); st.Entries != callers*renders {
		t.Errorf("ring holds %d traces, want %d", st.Entries, callers*renders)
	}
	if reads.Load() == 0 {
		t.Error("no trace was read while the renders ran")
	}
}
