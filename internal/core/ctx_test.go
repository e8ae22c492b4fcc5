package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"bgpvr/internal/img"
	"bgpvr/internal/trace"
	"bgpvr/internal/volume"
)

// countingFieldCache is a minimal FieldCache for tests: a map plus
// hit/miss counters.
type countingFieldCache struct {
	mu     sync.Mutex
	m      map[FieldKey]*volume.Field
	hits   int
	misses int
}

func (c *countingFieldCache) Get(key FieldKey, generate func() *volume.Field) *volume.Field {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = map[FieldKey]*volume.Field{}
	}
	if f, ok := c.m[key]; ok {
		c.hits++
		return f
	}
	c.misses++
	f := generate()
	c.m[key] = f
	return f
}

// TestRequestID pins the context helpers.
func TestRequestID(t *testing.T) {
	if got := RequestIDFrom(context.Background()); got != "" {
		t.Errorf("bare context carries request ID %q", got)
	}
	ctx := WithRequestID(context.Background(), "req-42")
	if got := RequestIDFrom(ctx); got != "req-42" {
		t.Errorf("RequestIDFrom = %q, want req-42", got)
	}
}

// TestConfigTracerSpans pins what a frame records on cfg.Trace — the
// one way to hand a frame its tracer: the stage spans, the
// field-cache-fill span exactly on cache misses, and in model mode the
// virtual timeline.
func TestConfigTracerSpans(t *testing.T) {
	s := DefaultScene(16, 32)
	tr := trace.New(2)
	cache := &countingFieldCache{}
	cold := RealConfig{Trace: tr, Scene: s, Procs: 2, Fields: cache}
	if _, err := RunReal(cold); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, e := range tr.Events() {
		counts[e.Name]++
	}
	for _, name := range []string{"io", "render", "composite"} {
		if counts[name] == 0 {
			t.Errorf("tracer missing %q span", name)
		}
	}
	if counts["field-cache-fill"] != 2 {
		t.Errorf("cold frame field-cache-fill spans = %d, want 2 (one per rank)", counts["field-cache-fill"])
	}

	// A warm second frame hits every block: no fill spans.
	warm := cold
	warm.Trace = trace.New(2)
	if _, err := RunReal(warm); err != nil {
		t.Fatal(err)
	}
	for _, e := range warm.Trace.Events() {
		if e.Name == "field-cache-fill" {
			t.Fatal("warm frame recorded a field-cache-fill span")
		}
	}

	// Model mode lays its virtual timeline on the tracer too.
	vt := trace.NewVirtual(1)
	if _, err := RunModel(ModelConfig{Trace: vt, Scene: s, Procs: 2}); err != nil {
		t.Fatal(err)
	}
	var sawRender bool
	for _, e := range vt.Events() {
		sawRender = sawRender || e.Name == "render"
	}
	if !sawRender {
		t.Error("model virtual timeline missing on the tracer")
	}
}

// TestRunRealCanceled pins the cancellation contract: a dead context
// stops the frame with a wrapped context error, in both modes.
func TestRunRealCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := DefaultScene(16, 32)
	_, err := RunReal(RealConfig{Ctx: ctx, Scene: s, Procs: 2})
	if err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Errorf("RunReal with dead ctx: %v, want cancellation error", err)
	}
	_, err = RunModel(ModelConfig{Ctx: ctx, Scene: s, Procs: 2})
	if err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Errorf("RunModel with dead ctx: %v, want cancellation error", err)
	}
}

// TestFieldCacheReuse pins the cache contract: a second identical frame
// hits for every block, and the cached frame is bit-identical to the
// uncached one.
func TestFieldCacheReuse(t *testing.T) {
	s := DefaultScene(16, 32)
	base := RealConfig{Scene: s, Procs: 4}
	plain, err := RunReal(base)
	if err != nil {
		t.Fatal(err)
	}

	cache := &countingFieldCache{}
	cached := base
	cached.Fields = cache
	first, err := RunReal(cached)
	if err != nil {
		t.Fatal(err)
	}
	if cache.misses != 4 || cache.hits != 0 {
		t.Errorf("first frame: %d misses %d hits, want 4/0", cache.misses, cache.hits)
	}
	second, err := RunReal(cached)
	if err != nil {
		t.Fatal(err)
	}
	if cache.misses != 4 || cache.hits != 4 {
		t.Errorf("second frame: %d misses %d hits, want 4/4", cache.misses, cache.hits)
	}
	for _, r := range []*RealResult{first, second} {
		if d := img.MaxDiff(plain.Image, r.Image); d != 0 {
			t.Fatalf("cached frame differs from uncached frame (max diff %v)", d)
		}
	}

	// GhostExchange mutates fields in place: the cache must be bypassed.
	ge := cached
	ge.GhostExchange = true
	if _, err := RunReal(ge); err != nil {
		t.Fatal(err)
	}
	if cache.misses != 4 || cache.hits != 4 {
		t.Errorf("GhostExchange touched the cache: %d misses %d hits", cache.misses, cache.hits)
	}
}
