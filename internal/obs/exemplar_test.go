package obs

import (
	"strings"
	"testing"
)

// TestExemplarRoundTrip pins the exemplar contract: ObserveEx on an
// armed histogram stamps the landing bucket, the last write wins,
// BucketExemplar reads it back, and the exposition
// carries the OpenMetrics-style suffix on exactly the stamped buckets.
func TestExemplarRoundTrip(t *testing.T) {
	r := NewRegistry()
	vec := r.NewHistogramVec("lat_seconds", "Latency.", []float64{0.01, 0.1, 1})
	vec.EnableExemplars()
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

// TestExemplarChildrenInheritArming pins that children created after
// EnableExemplars come armed, and that arming is idempotent under an
// already-armed histogram.
func TestExemplarChildrenInheritArming(t *testing.T) {
	r := NewRegistry()
	vec := r.NewHistogramVec("lat2_seconds", "Latency.", []float64{1})
	vec.EnableExemplars()
	h := vec.With(`endpoint="/x"`)
	h.EnableExemplars() // idempotent
	h.ObserveEx(0.5, "a")
	if e, ok := h.BucketExemplar(0); !ok || e.TraceID != "a" {
		t.Errorf("child created after arming not armed: %+v ok=%v", e, ok)
	}
}

// TestExemplarDisabledZeroAlloc pins the off-path cost: ObserveEx on a
// histogram without exemplars enabled allocates nothing and stores
// nothing, and the exposition is byte-identical to plain Observe.
func TestExemplarDisabledZeroAlloc(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("plain_seconds", "Latency.", ExpBuckets(0.001, 2, 10))
	id := "req-9"
	if allocs := testing.AllocsPerRun(100, func() {
		h.ObserveEx(0.004, id)
	}); allocs != 0 {
		t.Errorf("ObserveEx with exemplars off allocates %v per run, want 0", allocs)
	}
	if _, ok := h.BucketExemplar(2); ok {
		t.Error("disabled histogram stored an exemplar")
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "#") && strings.Contains(b.String(), "trace_id") {
		t.Errorf("disabled histogram exposition carries exemplars:\n%s", b.String())
	}
}
