package img

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func randPixel(rng *rand.Rand) RGBA {
	a := rng.Float32()
	return RGBA{rng.Float32() * a, rng.Float32() * a, rng.Float32() * a, a}
}

func pixAlmostEq(p, q RGBA, eps float32) bool {
	abs := func(x float32) float32 {
		if x < 0 {
			return -x
		}
		return x
	}
	return abs(p.R-q.R) <= eps && abs(p.G-q.G) <= eps && abs(p.B-q.B) <= eps && abs(p.A-q.A) <= eps
}

func TestOverIdentity(t *testing.T) {
	p := RGBA{0.2, 0.3, 0.1, 0.5}
	if got := Over(RGBA{}, p); got != p {
		t.Errorf("transparent over p = %v", got)
	}
	opaque := RGBA{1, 0, 0, 1}
	if got := Over(opaque, p); got != opaque {
		t.Errorf("opaque over p = %v", got)
	}
}

// Property: Over is associative on premultiplied pixels (the invariant
// that makes every compositing algorithm in this repo interchangeable).
func TestOverAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		a, b, c := randPixel(rng), randPixel(rng), randPixel(rng)
		l := Over(Over(a, b), c)
		r := Over(a, Over(b, c))
		if !pixAlmostEq(l, r, 1e-5) {
			t.Fatalf("not associative: %v vs %v", l, r)
		}
	}
}

// Property: compositing valid premultiplied pixels keeps alpha in [0,1]
// and colors within [0, A].
func TestOverBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		p := Over(randPixel(rng), randPixel(rng))
		if p.A < 0 || p.A > 1+1e-6 {
			t.Fatalf("alpha out of range: %v", p)
		}
		for _, c := range []float32{p.R, p.G, p.B} {
			if c < 0 || c > p.A+1e-6 {
				t.Fatalf("color exceeds alpha: %v", p)
			}
		}
	}
}

func TestOverUnderSlicesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 64
	front := make([]RGBA, n)
	back := make([]RGBA, n)
	for i := range front {
		front[i], back[i] = randPixel(rng), randPixel(rng)
	}
	// acc starts as front, UnderSlices(acc, back) == OverSlices(front, back).
	acc := append([]RGBA(nil), front...)
	UnderSlices(acc, back)
	b2 := append([]RGBA(nil), back...)
	OverSlices(front, b2)
	for i := range acc {
		if acc[i] != b2[i] {
			t.Fatalf("pixel %d: %v vs %v", i, acc[i], b2[i])
		}
	}
}

func TestOverSlicesPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	OverSlices(make([]RGBA, 2), make([]RGBA, 3))
}

func TestImageBasics(t *testing.T) {
	m := New(4, 3)
	if len(m.Pix) != 12 {
		t.Fatalf("len = %d", len(m.Pix))
	}
	p := RGBA{0.1, 0.2, 0.3, 0.4}
	m.Set(2, 1, p)
	if m.At(2, 1) != p {
		t.Error("Set/At mismatch")
	}
	if m.Pix[1*4+2] != p {
		t.Error("row-major layout violated")
	}
}

func TestMaxDiff(t *testing.T) {
	a, b := New(2, 2), New(2, 2)
	if MaxDiff(a, b) != 0 {
		t.Error("identical images should differ by 0")
	}
	b.Set(1, 1, RGBA{0, 0.25, 0, 0})
	if d := MaxDiff(a, b); math.Abs(d-0.25) > 1e-9 {
		t.Errorf("MaxDiff = %v", d)
	}
}

func TestRect(t *testing.T) {
	r := Rect{1, 2, 5, 4}
	if r.W() != 4 || r.H() != 2 || r.NumPixels() != 8 || r.Empty() {
		t.Errorf("rect geometry wrong: %v", r)
	}
	e := Rect{3, 3, 3, 9}
	if !e.Empty() || e.NumPixels() != 0 || e.W() != 0 {
		t.Errorf("empty rect mishandled: %v", e)
	}
	i := r.Intersect(Rect{0, 0, 3, 10})
	if i != (Rect{1, 2, 3, 4}) {
		t.Errorf("Intersect = %v", i)
	}
}

func TestEncodePPM(t *testing.T) {
	m := New(2, 1)
	m.Set(0, 0, RGBA{1, 1, 1, 1}) // opaque white
	m.Set(1, 0, RGBA{})           // transparent -> background
	var buf bytes.Buffer
	if err := m.EncodePPM(&buf, 0); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "P6\n2 1\n255\n") {
		t.Fatalf("header wrong: %q", s[:20])
	}
	pix := buf.Bytes()[len("P6\n2 1\n255\n"):]
	if len(pix) != 6 {
		t.Fatalf("payload %d bytes", len(pix))
	}
	if pix[0] != 255 || pix[1] != 255 || pix[2] != 255 {
		t.Errorf("white pixel = %v", pix[:3])
	}
	if pix[3] != 0 || pix[4] != 0 || pix[5] != 0 {
		t.Errorf("background pixel = %v", pix[3:])
	}
}

func TestEncodePGM(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodePGM(&buf, 2, 2, []float64{0, 1, 0.5, 2}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if !bytes.HasPrefix(b, []byte("P5\n2 2\n255\n")) {
		t.Fatalf("header wrong: %q", b)
	}
	pix := b[len("P5\n2 2\n255\n"):]
	if pix[0] != 0 || pix[1] != 255 || pix[3] != 255 {
		t.Errorf("pixels = %v", pix)
	}
	if err := EncodePGM(&buf, 2, 2, []float64{1}); err == nil {
		t.Error("expected size-mismatch error")
	}
}

func TestSrgb8Monotone(t *testing.T) {
	prev := byte(0)
	for v := 0.0; v <= 1.0; v += 1.0 / 512 {
		b := srgb8(v)
		if b < prev {
			t.Fatalf("srgb8 not monotone at %v", v)
		}
		prev = b
	}
	if srgb8(-1) != 0 || srgb8(2) != 255 {
		t.Error("clamping broken")
	}
}

// The threshold table EncodePPM converts with is srgb8, byte for byte:
// within 4096 float64 and float32 steps of every threshold (where a
// table that is off would differ first), across the range and past its
// ends, and at the values a float32 component can take.
func TestSrgb8TableMatchesSrgb8(t *testing.T) {
	tab := srgb8s()
	thr := tab.thr[:256]
	check := func(v float64) {
		if got, want := tab.encode(v), srgb8(v); got != want {
			t.Fatalf("at %v (bits %#x): table %d, srgb8 %d", v, math.Float64bits(v), got, want)
		}
	}
	for b := 1; b < len(thr); b++ {
		if srgb8(thr[b]) != byte(b) || srgb8(math.Nextafter(thr[b], 0)) != byte(b-1) {
			t.Fatalf("threshold %d at %v is not where srgb8 reaches %d", b, thr[b], b)
		}
		bits := math.Float64bits(thr[b])
		bits32 := math.Float32bits(float32(thr[b]))
		for d := uint64(0); d <= 4096; d++ {
			check(math.Float64frombits(bits + d))
			check(math.Float64frombits(bits - d))
			check(float64(math.Float32frombits(bits32 + uint32(d))))
			check(float64(math.Float32frombits(bits32 - uint32(d))))
		}
	}
	for v := -0.25; v <= 1.25; v += 1.0 / 65536 {
		check(v)
	}
	for _, v := range []float64{0, math.Copysign(0, -1), 1, math.Nextafter(1, 0), math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), 255} {
		check(v)
	}
}
