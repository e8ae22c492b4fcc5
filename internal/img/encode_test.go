package img

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// searchEncode is the encoder the bucket index replaced: srgb8(v) as
// the number of thresholds at or below v, by an eight-step binary
// search. It is the reference encode is held to.
func searchEncode(t *srgb8Table, v float64) byte {
	b := 0
	for s := 128; s > 0; s >>= 1 {
		if v >= t.thr[b+s] {
			b += s
		}
	}
	return byte(b)
}

// searchPPM is EncodePPM with the reference encoder.
func searchPPM(m *Image, background float64) []byte {
	tab := srgb8s()
	buf := fmt.Appendf(nil, "P6\n%d %d\n255\n", m.W, m.H)
	for _, p := range m.Pix {
		t := 1 - float64(p.A)
		buf = append(buf,
			searchEncode(tab, float64(p.R)+t*background),
			searchEncode(tab, float64(p.G)+t*background),
			searchEncode(tab, float64(p.B)+t*background))
	}
	return buf
}

// specials are the values at and past the ends of the index's range.
func specials() []float64 {
	return []float64{
		0, math.Copysign(0, -1), math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 0x1p-1022, math.Nextafter(0x1p-1022, 0), // subnormals and the least normal
		float64(math.SmallestNonzeroFloat32), 0x1p-126, // float32's
		math.Nextafter(idxFloor, 0), idxFloor, math.Nextafter(idxFloor, 1),
		-1e-300, -0.5, -1, -math.MaxFloat64,
		math.Nextafter(1, 0), 1, math.Nextafter(1, 2), 1.5, 255, math.MaxFloat64,
	}
}

// Every float32 in [0, 1] — every value a component over background 0
// can take — and the float64 neighbours of every threshold, the special
// values and both ends of the index encode as the search does.
func TestEncodeMatchesSearch(t *testing.T) {
	tab := srgb8s()
	check := func(t *testing.T, v float64) {
		if got, want := tab.encode(v), searchEncode(tab, v); got != want {
			t.Fatalf("at %v (bits %#x): encode %d, search %d", v, math.Float64bits(v), got, want)
		}
	}
	t.Run("thresholds", func(t *testing.T) {
		for b := 1; b < 256; b++ {
			bits := math.Float64bits(tab.thr[b])
			for d := uint64(0); d <= 64; d++ {
				check(t, math.Float64frombits(bits+d))
				check(t, math.Float64frombits(bits-d))
			}
		}
		for _, v := range specials() {
			check(t, v)
		}
	})
	const top = 0x3f800000 // Float32bits(1)
	const parts = 16
	for p := uint32(0); p < parts; p++ {
		lo, hi := p*(top/parts+1), min((p+1)*(top/parts+1), top+1)
		t.Run(fmt.Sprintf("float32/%#x-%#x", lo, hi), func(t *testing.T) {
			t.Parallel()
			for u := lo; u < hi; u++ {
				v := float64(math.Float32frombits(u))
				if tab.encode(v) != searchEncode(tab, v) {
					check(t, v)
				}
			}
		})
	}
}

// PPM and EncodePPM write the reference bytes over backgrounds 0 and
// 0.5, for random pixels and for every special value in every channel
// and in alpha.
func TestPPMMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New(37, 23)
	for i := range m.Pix {
		a := rng.Float32()
		m.Pix[i] = RGBA{R: a * rng.Float32(), G: a * rng.Float32(), B: a * rng.Float32(), A: a}
	}
	i := 0
	for _, v := range specials() {
		f := float32(v)
		for _, p := range []RGBA{{R: f}, {G: f, A: 0.5}, {B: f, A: 1}, {R: 0.25, G: 0.25, B: 0.25, A: f}} {
			m.Pix[i] = p
			i++
		}
	}
	for _, bg := range []float64{0, 0.5} {
		want := searchPPM(m, bg)
		got := m.PPM(bg)
		if !bytes.Equal(got, want) {
			t.Errorf("background %v: PPM differs from the search", bg)
		}
		if len(got) != cap(got) {
			t.Errorf("background %v: PPM buffer %d bytes, cap %d", bg, len(got), cap(got))
		}
		var buf bytes.Buffer
		if err := m.EncodePPM(&buf, bg); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("background %v: EncodePPM differs from the search", bg)
		}
	}
}

// FuzzEncodeMatchesSearch holds encode to the search on arbitrary
// float64 bit patterns.
func FuzzEncodeMatchesSearch(f *testing.F) {
	for _, v := range specials() {
		f.Add(math.Float64bits(v))
	}
	tab := srgb8s()
	for _, b := range []int{1, 2, 128, 254, 255} {
		f.Add(math.Float64bits(tab.thr[b]))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if got, want := tab.encode(v), searchEncode(tab, v); got != want {
			t.Fatalf("at %v (bits %#x): encode %d, search %d", v, bits, got, want)
		}
	})
}

func BenchmarkEncodePPM(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := New(128, 128)
	for i := range m.Pix {
		a := rng.Float32()
		m.Pix[i] = RGBA{R: a / 2, G: a / 3, B: a / 4, A: a}
	}
	b.ReportAllocs()
	for b.Loop() {
		m.PPM(0)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(m.Pix)), "ns/px")
}
