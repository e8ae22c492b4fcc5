package iotrace

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"bgpvr/internal/grid"
)

func TestLogRecord(t *testing.T) {
	var l Log
	l.Record(0, 10)
	l.Record(20, 5)
	acc := l.Accesses()
	if len(acc) != 2 || acc[0] != (grid.Run{Offset: 0, Length: 10}) || acc[1] != (grid.Run{Offset: 20, Length: 5}) {
		t.Fatalf("accesses = %v", acc)
	}
	// Returned slice is a copy.
	acc[0].Offset = 99
	if l.Accesses()[0].Offset != 0 {
		t.Error("Accesses should copy")
	}
}

func TestLogConcurrent(t *testing.T) {
	var l Log
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Record(int64(j), 1)
			}
		}()
	}
	wg.Wait()
	if len(l.Accesses()) != 800 {
		t.Errorf("got %d accesses", len(l.Accesses()))
	}
}

func TestAnalyzeDensity(t *testing.T) {
	physical := []grid.Run{{Offset: 0, Length: 100}, {Offset: 200, Length: 100}}
	useful := []grid.Run{{Offset: 0, Length: 50}}
	st := Analyze(physical, useful)
	if st.Accesses != 2 || st.PhysicalBytes != 200 || st.UsefulBytes != 50 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Density() != 0.25 {
		t.Errorf("density = %v", st.Density())
	}
	if st.MeanAccess != 100 {
		t.Errorf("mean = %v", st.MeanAccess)
	}
}

func TestAnalyzeUniqueBytesDeduplicates(t *testing.T) {
	// Two overlapping accesses: physical counts both, unique does not.
	physical := []grid.Run{{Offset: 0, Length: 100}, {Offset: 50, Length: 100}}
	st := Analyze(physical, nil)
	if st.PhysicalBytes != 200 || st.UniqueBytes != 150 {
		t.Errorf("physical=%d unique=%d", st.PhysicalBytes, st.UniqueBytes)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	st := Analyze(nil, nil)
	if st.Density() != 0 || st.MeanAccess != 0 {
		t.Errorf("empty stats = %+v", st)
	}
	if !strings.Contains(st.String(), "density=0.000") {
		t.Errorf("String = %q", st.String())
	}
}

func TestMapFullRead(t *testing.T) {
	m := Map([]grid.Run{{Offset: 0, Length: 1000}}, 1000, 10)
	for i, v := range m {
		if math.Abs(v-1) > 1e-9 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestMapPartialBins(t *testing.T) {
	// Read covers only the first half of a 2-bin file.
	m := Map([]grid.Run{{Offset: 0, Length: 500}}, 1000, 2)
	if math.Abs(m[0]-1) > 1e-9 || m[1] != 0 {
		t.Errorf("map = %v", m)
	}
	// Read straddling the bin boundary.
	m = Map([]grid.Run{{Offset: 250, Length: 500}}, 1000, 2)
	if math.Abs(m[0]-0.5) > 1e-9 || math.Abs(m[1]-0.5) > 1e-9 {
		t.Errorf("straddle map = %v", m)
	}
}

func TestMapOverlapsClamped(t *testing.T) {
	// Overlapping accesses cannot push a bin above 1.
	m := Map([]grid.Run{{Offset: 0, Length: 100}, {Offset: 0, Length: 100}}, 100, 1)
	if m[0] != 1 {
		t.Errorf("map = %v", m)
	}
	// Access past EOF is clipped.
	m = Map([]grid.Run{{Offset: 50, Length: 500}}, 100, 2)
	if m[0] != 0 && math.Abs(m[1]-1) > 1e-9 {
		t.Errorf("clipped map = %v", m)
	}
}

func TestMapDegenerate(t *testing.T) {
	if len(Map(nil, 0, 5)) != 5 {
		t.Error("zero-size file should still return bins")
	}
	if len(Map(nil, 100, 0)) != 0 {
		t.Error("zero bins should return empty")
	}
}

func TestASCIIMap(t *testing.T) {
	s := ASCIIMap([]float64{0, 1, 0.5, 0}, 2)
	lines := strings.Split(s, "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %q", s)
	}
	if lines[0][0] != ' ' || lines[0][1] != '@' {
		t.Errorf("row 0 = %q", lines[0])
	}
	// Out-of-range values clamp rather than panic.
	_ = ASCIIMap([]float64{-1, 2}, 2)
}

func TestMeanSeek(t *testing.T) {
	// Sequential accesses: zero seek.
	seq := []grid.Run{{Offset: 0, Length: 100}, {Offset: 100, Length: 100}, {Offset: 200, Length: 50}}
	if st := Analyze(seq, nil); st.MeanSeek != 0 {
		t.Errorf("sequential MeanSeek = %v", st.MeanSeek)
	}
	// Strided accesses: constant gap.
	strided := []grid.Run{{Offset: 0, Length: 10}, {Offset: 100, Length: 10}, {Offset: 200, Length: 10}}
	if st := Analyze(strided, nil); st.MeanSeek != 90 {
		t.Errorf("strided MeanSeek = %v, want 90", st.MeanSeek)
	}
	// Backward jumps count by magnitude.
	back := []grid.Run{{Offset: 1000, Length: 10}, {Offset: 0, Length: 10}}
	if st := Analyze(back, nil); st.MeanSeek != 1010 {
		t.Errorf("backward MeanSeek = %v, want 1010", st.MeanSeek)
	}
	if st := Analyze(nil, nil); st.MeanSeek != 0 {
		t.Error("empty MeanSeek should be 0")
	}
}

// analyzeReference is Analyze as it was before it counted unique bytes
// in one pass over a slices.SortFunc copy: sort.Slice, then
// grid.CoalesceRuns.
func analyzeReference(physical, useful []grid.Run) Stats {
	var st Stats
	st.Accesses = len(physical)
	st.PhysicalBytes = grid.TotalBytes(physical)
	sorted := append([]grid.Run(nil), physical...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Offset < sorted[j].Offset })
	st.UniqueBytes = grid.TotalBytes(grid.CoalesceRuns(sorted))
	st.UsefulBytes = grid.TotalBytes(useful)
	if st.Accesses > 0 {
		st.MeanAccess = float64(st.PhysicalBytes) / float64(st.Accesses)
	}
	var seek float64
	for i := 1; i < len(physical); i++ {
		d := physical[i].Offset - physical[i-1].End()
		if d < 0 {
			d = -d
		}
		seek += float64(d)
	}
	if len(physical) > 1 {
		st.MeanSeek = seek / float64(len(physical)-1)
	}
	return st
}

// Analyze equals the reference on random access lists: unsorted,
// overlapping, nested, duplicated, zero-length, and empty.
func TestAnalyzeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(40)
		if trial%50 == 0 {
			n = 0
		}
		span := int64(1 + rng.Intn(1<<rng.Intn(20)))
		physical := make([]grid.Run, n)
		for i := range physical {
			physical[i] = grid.Run{Offset: rng.Int63n(span), Length: rng.Int63n(span/4 + 1)}
			if i > 0 && rng.Intn(8) == 0 {
				physical[i] = physical[rng.Intn(i)] // an access issued twice
			}
		}
		useful := physical[:rng.Intn(n+1)]
		got, want := Analyze(physical, useful), analyzeReference(physical, useful)
		if got != want {
			t.Fatalf("trial %d, %v: Analyze %+v, reference %+v", trial, physical, got, want)
		}
		var l Log
		for _, r := range physical {
			l.Record(r.Offset, r.Length)
		}
		if got, want := l.Stats(), analyzeReference(physical, nil); got != want {
			t.Fatalf("trial %d: Log.Stats %+v, reference %+v", trial, got, want)
		}
	}
}

// Analyze allocates its sorted copy and nothing else; Log.Stats adds no
// copy of its own.
func TestAnalyzeAllocations(t *testing.T) {
	physical := []grid.Run{{Offset: 300, Length: 50}, {Offset: 0, Length: 100}, {Offset: 50, Length: 100}}
	if n := testing.AllocsPerRun(50, func() { Analyze(physical, physical[:1]) }); n != 1 {
		t.Errorf("Analyze: %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(50, func() { Analyze(nil, nil) }); n != 0 {
		t.Errorf("Analyze of nothing: %v allocations, want 0", n)
	}
	var l Log
	for _, r := range physical {
		l.Record(r.Offset, r.Length)
	}
	if n := testing.AllocsPerRun(50, func() { l.Stats() }); n != 1 {
		t.Errorf("Log.Stats: %v allocations, want 1", n)
	}
}
