package core

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bgpvr/internal/img"
	"bgpvr/internal/trace"
	"bgpvr/internal/volume"
)

// countingFieldCache is a minimal FieldCache for tests: a map per kind
// plus hit/miss counters.
type countingFieldCache struct {
	mu     sync.Mutex
	m      map[FieldKey]*volume.Field
	hits   int
	misses int
	turbs  map[TurbulenceKey]*volume.Turbulence
	builds int // turbulence tables built
}

func (c *countingFieldCache) Turbulence(key TurbulenceKey, build func() *volume.Turbulence) *volume.Turbulence {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.turbs == nil {
		c.turbs = map[TurbulenceKey]*volume.Turbulence{}
	}
	if t, ok := c.turbs[key]; ok {
		return t
	}
	c.builds++
	t := build()
	c.turbs[key] = t
	return t
}

// Get generates outside the lock, since generate asks for the block's
// turbulence table.
func (c *countingFieldCache) Get(key FieldKey, generate func() *volume.Field) *volume.Field {
	c.mu.Lock()
	if f, ok := c.m[key]; ok {
		c.hits++
		c.mu.Unlock()
		return f
	}
	c.misses++
	c.mu.Unlock()
	f := generate()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = map[FieldKey]*volume.Field{}
	}
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
// field-cache-fill span exactly on field cache misses, the
// turbulence-fill span exactly on turbulence table misses, and in model
// mode the virtual timeline.
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
	if counts["field-cache-fill"] != 2 || counts["turbulence-fill"] != 2 {
		t.Errorf("cold frame field-cache-fill, turbulence-fill spans = %d, %d, want 2 each (one per rank)",
			counts["field-cache-fill"], counts["turbulence-fill"])
	}

	// A warm second frame hits every block: no fill spans.
	warm := cold
	warm.Trace = trace.New(2)
	if _, err := RunReal(warm); err != nil {
		t.Fatal(err)
	}
	for _, e := range warm.Trace.Events() {
		if e.Name == "field-cache-fill" || e.Name == "turbulence-fill" {
			t.Fatalf("warm frame recorded a %s span", e.Name)
		}
	}

	// A new Time misses every field but no table.
	step := warm
	step.Scene.Time++
	step.Trace = trace.New(2)
	if _, err := RunReal(step); err != nil {
		t.Fatal(err)
	}
	counts = map[string]int{}
	for _, e := range step.Trace.Events() {
		counts[e.Name]++
	}
	if counts["field-cache-fill"] != 2 || counts["turbulence-fill"] != 0 {
		t.Errorf("new-step frame field-cache-fill, turbulence-fill spans = %d, %d, want 2, 0",
			counts["field-cache-fill"], counts["turbulence-fill"])
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

// cancelingFieldCache cancels the frame's context from the first Get,
// which one rank makes in the middle of the frame's generation, and then
// serves the field as countingFieldCache does.
type cancelingFieldCache struct {
	countingFieldCache
	once   sync.Once
	cancel context.CancelFunc
}

func (c *cancelingFieldCache) Get(key FieldKey, generate func() *volume.Field) *volume.Field {
	c.once.Do(c.cancel)
	return c.countingFieldCache.Get(key, generate)
}

// TestRunRealCanceled pins the cancellation contract: a dead context
// stops the frame with a wrapped context error, in both modes, and so
// does a context that one rank's work cancels mid-frame, after which no
// rank's goroutine is left behind.
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

	goroutines := runtime.NumGoroutine()
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	_, err = RunReal(RealConfig{Ctx: ctx, Scene: s, Procs: 8, Fields: &cancelingFieldCache{cancel: cancel}})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("RunReal canceled mid-generation: %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after the canceled frame, %d before", n, goroutines)
	}

	// No barrier aligns the ranks' checks, so a context that turns at
	// its k-th Err call cancels the frame at a different rank and stage
	// for each k: before a rank's read, in the middle of another's
	// collective read or cast, or with the rest already compositing.
	// Each rank makes three checks, so the k-th check is made in every
	// frame for k up to 3×procs. Each such frame fails with the cancellation, leaves no
	// goroutine behind, and leaves no released buffer or cached state
	// that changes the next frame.
	const procs = 8
	path := filepath.Join(t.TempDir(), "step.raw")
	if err := WriteSceneFile(path, FormatRaw, s); err != nil {
		t.Fatal(err)
	}
	for _, f := range []Format{FormatGenerate, FormatRaw} {
		cfg := RealConfig{Scene: s, Procs: procs, Format: f, Path: path}
		cold, err := RunReal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(1); k <= 3*procs; k++ {
			before := runtime.NumGoroutine()
			canceled := cfg
			canceled.Ctx = &countdownContext{Context: context.Background(), k: k}
			if _, err := RunReal(canceled); !errors.Is(err, context.Canceled) {
				t.Errorf("format %v, canceled at check %d: %v, want context.Canceled", f, k, err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("format %v, canceled at check %d: %d goroutines after the frame, %d before", f, k, n, before)
			}
			next, err := RunReal(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(next.Image, cold.Image) {
				t.Fatalf("format %v: the frame after one canceled at check %d differs from a cold frame", f, k)
			}
		}
	}
}

// countdownContext is a context that is not done for its first k-1 Err
// calls and canceled from the k-th on, whichever rank makes them.
type countdownContext struct {
	context.Context
	calls atomic.Int64
	k     int64
}

func (c *countdownContext) Err() error {
	if c.calls.Add(1) >= c.k {
		return context.Canceled
	}
	return nil
}

// sameBits reports whether two images hold the same float bits.
func sameBits(a, b *img.Image) bool {
	if a.W != b.W || a.H != b.H {
		return false
	}
	for i, p := range a.Pix {
		q := b.Pix[i]
		for _, c := range [4][2]float32{{p.R, q.R}, {p.G, q.G}, {p.B, q.B}, {p.A, q.A}} {
			if math.Float32bits(c[0]) != math.Float32bits(c[1]) {
				return false
			}
		}
	}
	return true
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
}

// TestResidentTurbulenceFrames pins what the service's animation
// traffic relies on: frames of one seed at several Times, each field
// built from the block's cached turbulence table, are bit-identical to
// uncached frames, and each block's table is built once.
func TestResidentTurbulenceFrames(t *testing.T) {
	cache := &countingFieldCache{}
	times := []float64{1.1, 0.5, 2.75, -3}
	for _, tm := range times {
		s := DefaultScene(16, 32)
		s.Time = tm
		plain, err := RunReal(RealConfig{Scene: s, Procs: 4})
		if err != nil {
			t.Fatal(err)
		}
		cached, err := RunReal(RealConfig{Scene: s, Procs: 4, Fields: cache})
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(cached.Image, plain.Image) {
			t.Fatalf("time %v: the cached frame differs from the uncached one", tm)
		}
	}
	if cache.builds != 4 || cache.misses != 4*len(times) || cache.hits != 0 {
		t.Errorf("%d table builds, %d field misses, %d hits; want 4, %d, 0",
			cache.builds, cache.misses, cache.hits, 4*len(times))
	}
}
