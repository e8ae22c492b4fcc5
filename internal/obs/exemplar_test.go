package obs

import (
	"strings"
	"testing"
)

// TestExemplarRoundTrip pins the exemplar contract: ObserveEx stamps
// the landing bucket, the last write wins,
// BucketExemplar reads it back, and the exposition
// carries the OpenMetrics-style suffix on exactly the stamped buckets.
func TestExemplarRoundTrip(t *testing.T) {
	r := NewRegistry()
	vec := r.NewHistogramVec("lat_seconds", "Latency.", []float64{0.01, 0.1, 1})
	h := vec.With(`endpoint="/render"`)

	h.ObserveEx(0.05, "req-1") // (0.01, 0.1] bucket
	h.ObserveEx(0.06, "req-2") // same bucket: last exemplar wins
	h.ObserveEx(5.0, "req-slow")
	h.Observe(0.005) // plain Observe never stamps

	if e, ok := h.BucketExemplar(1); !ok || e.TraceID != "req-2" || e.Value != 0.06 {
		t.Errorf("bucket 1 exemplar = %+v ok=%v, want req-2/0.06", e, ok)
	}
	if _, ok := h.BucketExemplar(0); ok {
		t.Error("bucket 0 has an exemplar without an ObserveEx landing there")
	}
	if e, ok := h.BucketExemplar(3); !ok || e.TraceID != "req-slow" {
		t.Errorf("+Inf bucket exemplar = %+v ok=%v, want req-slow", e, ok)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `le="0.1"} 3 # {trace_id="req-2"} 0.06`) {
		t.Errorf("exposition missing bucket exemplar:\n%s", out)
	}
	if !strings.Contains(out, `le="+Inf"} 4 # {trace_id="req-slow"} 5`) {
		t.Errorf("exposition missing +Inf exemplar:\n%s", out)
	}
	if strings.Contains(out, `le="0.01"} 1 #`) {
		t.Errorf("unstamped bucket grew an exemplar:\n%s", out)
	}
}

// TestExemplarZeroAlloc pins the cost of exemplars: Observe and
// ObserveEx allocate nothing, and a histogram fed only by Observe
// stores no exemplar and exposes no exemplar suffix (TestPrometheusGolden
// pins those bytes).
func TestExemplarZeroAlloc(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("plain_seconds", "Latency.", ExpBuckets(0.001, 2, 10))
	if allocs := testing.AllocsPerRun(100, func() {
		h.Observe(0.004)
	}); allocs != 0 {
		t.Errorf("Observe allocates %v per run, want 0", allocs)
	}
	for i := 0; i <= 10; i++ {
		if _, ok := h.BucketExemplar(i); ok {
			t.Errorf("bucket %d holds an exemplar that no ObserveEx stamped", i)
		}
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "trace_id") {
		t.Errorf("unstamped histogram exposition carries exemplars:\n%s", b.String())
	}

	id := "req-9"
	if allocs := testing.AllocsPerRun(100, func() {
		h.ObserveEx(0.004, id)
	}); allocs != 0 {
		t.Errorf("ObserveEx allocates %v per run, want 0", allocs)
	}
	if e, ok := h.BucketExemplar(2); !ok || e.TraceID != id {
		t.Errorf("bucket 2 exemplar = %+v ok=%v, want %s", e, ok, id)
	}
}
