package volume

import (
	"math"
	"math/rand"
	"testing"
)

// powBases are the bases the opacity correction's fast path must get
// right besides random ones: the ends of its domain, a subnormal, NaN,
// and bases whose powers land on either side of its 0x1p-1000 guard for
// some exponent.
func powBases() []float64 {
	bs := []float64{0, math.Copysign(0, -1), 1, math.Nextafter(1, 0), math.SmallestNonzeroFloat64,
		0x1p-1022, 0.5, 0.25, math.NaN(), math.Inf(1), 2, -0.5, -math.Nextafter(1, 0)}
	for n := 2; n <= 64; n++ {
		// base^n == 0x1p-1000 where base is 2^(-1000/n); step a few ulps
		// either way.
		b := math.Exp2(-1000 / float64(n))
		lo, hi := b, b
		for i := 0; i < 4; i++ {
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 1)
			bs = append(bs, lo, hi)
		}
		bs = append(bs, b)
	}
	return bs
}

func checkPowStep(t *testing.T, base float64, n int) {
	t.Helper()
	got, want := powStep(base, float64(n)), math.Pow(base, float64(n))
	if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("powStep(%v, %d) = %v (%#x), math.Pow %v (%#x)", base, n, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// The opacity correction's integer-step path returns math.Pow's bits for
// every exponent it takes, 2..64, on random bases in [0, 1] — uniform,
// and uniform in the exponent so that tiny ones are as common as large
// ones — and on the edge bases.
func TestPowStepMatchesPow(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	bases := powBases()
	for i := 0; i < 20000; i++ {
		bases = append(bases, rng.Float64(), 1-rng.Float64()*0x1p-20, math.Ldexp(rng.Float64(), -rng.Intn(1100)))
	}
	for n := 2; n <= 64; n++ {
		for _, b := range bases {
			checkPowStep(t, b, n)
		}
	}
	// Steps the fast path leaves to math.Pow go there.
	for _, ds := range []float64{0, 0.5, 1, 1.5, 65, 2.0000000000000004, math.Inf(1), math.NaN(), -3} {
		got, want := powStep(0.3, ds), math.Pow(0.3, ds)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("powStep(0.3, %v) = %v, math.Pow %v", ds, got, want)
		}
	}
}

// FuzzPowStepMatchesPow is the same comparison on arbitrary bases and
// exponents.
func FuzzPowStepMatchesPow(f *testing.F) {
	for _, b := range []float64{0, 0.5, math.Nextafter(1, 0), math.SmallestNonzeroFloat64, 0x1p-16} {
		f.Add(b, uint8(3))
		f.Add(b, uint8(16))
	}
	f.Fuzz(func(t *testing.T, base float64, n uint8) {
		checkPowStep(t, base, int(n)%66)
	})
}
