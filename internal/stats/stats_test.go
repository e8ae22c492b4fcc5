package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N != 8 || s.MinV != 2 || s.MaxV != 9 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v", s.Mean())
	}
	if math.Abs(s.Std()-2) > 1e-12 {
		t.Errorf("std = %v", s.Std())
	}
	if math.Abs(s.Imbalance()-9.0/5.0) > 1e-12 {
		t.Errorf("imbalance = %v", s.Imbalance())
	}
}

func TestSummaryEdgeCases(t *testing.T) {
	var s Summary
	if s.Std() != 0 || s.Mean() != 0 || s.Imbalance() != 1 {
		t.Error("zero-value summary should be neutral")
	}
	s.Add(3)
	if s.Std() != 0 || s.Mean() != 3 || s.MinV != 3 || s.MaxV != 3 {
		t.Errorf("single observation: %+v", s)
	}
}

// TestSummaryNaNRejection pins the edge-case contract the imbalance
// metrics rely on: a NaN observation is skipped, not absorbed — one
// poisoned rank timing must not wipe a phase summary.
func TestSummaryNaNRejection(t *testing.T) {
	var s Summary
	s.Add(2)
	s.Add(math.NaN())
	s.Add(4)
	if s.N != 2 {
		t.Fatalf("NaN counted: N = %d, want 2", s.N)
	}
	if s.Mean() != 3 || s.MinV != 2 || s.MaxV != 4 {
		t.Errorf("NaN perturbed summary: %+v", &s)
	}
	if math.IsNaN(s.Imbalance()) || math.IsNaN(s.CoV()) {
		t.Error("derived metrics became NaN")
	}
}

func TestCoV(t *testing.T) {
	var s Summary
	if s.CoV() != 0 {
		t.Error("empty CoV should be 0")
	}
	s.Add(5)
	if s.CoV() != 0 {
		t.Error("single-sample CoV should be 0")
	}
	s.Add(15)
	if want := s.Std() / 10; math.Abs(s.CoV()-want) > 1e-12 {
		t.Errorf("CoV = %v, want %v", s.CoV(), want)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	if got := Quantile([]float64{math.NaN()}, 0.5); got != 0 {
		t.Errorf("all-NaN Quantile = %v, want 0", got)
	}
	if got := Quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single-sample Quantile = %v, want 7", got)
	}
	xs := []float64{4, math.NaN(), 1, 3, 2}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q=0 -> %v, want 1", got)
	}
	if got := Quantile(xs, 1); got != 4 {
		t.Errorf("q=1 -> %v, want 4", got)
	}
	if got := Quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	// Input must not be reordered.
	if xs[0] != 4 || xs[2] != 1 {
		t.Error("Quantile mutated its input")
	}
}

func TestGini(t *testing.T) {
	if Gini(nil) != 0 || Gini([]float64{0, 0}) != 0 || Gini([]float64{math.NaN()}) != 0 {
		t.Error("degenerate Gini inputs should be 0")
	}
	if got := Gini([]float64{5, 5, 5, 5}); math.Abs(got) > 1e-12 {
		t.Errorf("uniform Gini = %v, want 0", got)
	}
	// One rank does everything: G = (n-1)/n.
	if got := Gini([]float64{0, 0, 0, 8}); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("concentrated Gini = %v, want 0.75", got)
	}
	if got := Gini([]float64{1, math.NaN(), 3}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("Gini with NaN = %v, want 0.25 (NaN skipped)", got)
	}
}

func TestSummaryMatchesDirectComputation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var s Summary
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
		s.Add(xs[i])
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var varsum float64
	for _, x := range xs {
		varsum += (x - mean) * (x - mean)
	}
	std := math.Sqrt(varsum / float64(len(xs)))
	if math.Abs(s.Mean()-mean) > 1e-9 || math.Abs(s.Std()-std) > 1e-9 {
		t.Errorf("welford mean/std = %v/%v, direct = %v/%v", s.Mean(), s.Std(), mean, std)
	}
}

func TestBytes(t *testing.T) {
	cases := map[int64]string{
		512:               "512 B",
		2048:              "2.00 KB",
		5 << 30:           "5.00 GB",
		27_917_287_424:    "26.00 GB",
		1 << 40:           "1.00 TB",
		4_723_519_240_601: "4.30 TB",
		int64(4.3e15):     "3.82 PB",
	}
	for n, want := range cases {
		if got := Bytes(n); got != want {
			t.Errorf("Bytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestRate(t *testing.T) {
	if got := Rate(1024 * 1024); got != "1.00 MB/s" {
		t.Errorf("Rate = %q", got)
	}
	if got := Rate(1.3 * 1024 * 1024 * 1024); got != "1.30 GB/s" {
		t.Errorf("Rate = %q", got)
	}
	if got := Rate(10); got != "10.00 B/s" {
		t.Errorf("Rate = %q", got)
	}
}

func TestSeconds(t *testing.T) {
	if got := Seconds(5.9); got != "5.90 s" {
		t.Errorf("Seconds = %q", got)
	}
	if got := Seconds(211); !strings.HasPrefix(got, "3m") {
		t.Errorf("Seconds(211) = %q", got)
	}
	if got := Seconds(0.005); got != "5.00 ms" {
		t.Errorf("Seconds = %q", got)
	}
	if got := Seconds(5e-6); got != "5.00 µs" {
		t.Errorf("Seconds = %q", got)
	}
	if got := Seconds(5e-8); got != "50.0 ns" {
		t.Errorf("Seconds = %q", got)
	}
}

func TestSummaryString(t *testing.T) {
	var s Summary
	s.Add(1)
	s.Add(3)
	if got := s.String(); !strings.Contains(got, "n=2") || !strings.Contains(got, "mean=2") {
		t.Errorf("String = %q", got)
	}
}
