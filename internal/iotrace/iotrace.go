// Package iotrace records and analyzes file access patterns: which byte
// ranges of a file were physically read, how much of that was useful,
// and the "data density" metric the paper defines (Fig 10: useful bytes
// divided by bytes actually read). It also rasterizes access patterns
// into the block maps of Fig 9.
package iotrace

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"bgpvr/internal/grid"
)

// Log accumulates physical file accesses. It is safe for concurrent use
// (aggregators log from many goroutines in real mode).
type Log struct {
	mu       sync.Mutex
	accesses []grid.Run
}

// minLogCap is a log's first capacity. A collective read records one
// access per non-empty window of every aggregator, tens to hundreds a
// frame, and a log grown by append from one entry reallocates at every
// doubling: six times on the way to 64.
const minLogCap = 64

// Record appends one physical access.
func (l *Log) Record(offset, length int64) {
	l.mu.Lock()
	if l.accesses == nil {
		l.accesses = make([]grid.Run, 0, minLogCap)
	}
	l.accesses = append(l.accesses, grid.Run{Offset: offset, Length: length})
	l.mu.Unlock()
}

// Accesses returns a copy of the recorded accesses in the order issued.
func (l *Log) Accesses() []grid.Run {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]grid.Run(nil), l.accesses...)
}

// Stats analyzes the recorded accesses as Analyze(l.Accesses(), nil)
// does, under the lock and without the copy.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Analyze(l.accesses, nil)
}

// Stats summarizes an access pattern against the set of bytes the
// application actually wanted.
type Stats struct {
	Accesses      int
	PhysicalBytes int64 // bytes read, counting each access in full
	UniqueBytes   int64 // distinct file bytes touched
	UsefulBytes   int64 // bytes the application requested
	MeanAccess    float64
	// MeanSeek is the mean absolute file-offset jump between
	// consecutive accesses in issue order — part of the "I/O signature"
	// the paper's §VI studies (0 for a purely sequential pattern).
	MeanSeek float64
}

// Density returns useful/physical — the paper's data-density metric
// ("the physical size in bytes of the desired data divided by the number
// of bytes that are actually read"). It is 0 when nothing was read.
func (s Stats) Density() float64 {
	if s.PhysicalBytes == 0 {
		return 0
	}
	return float64(s.UsefulBytes) / float64(s.PhysicalBytes)
}

func (s Stats) String() string {
	return fmt.Sprintf("accesses=%d physical=%d useful=%d density=%.3f mean=%.0f",
		s.Accesses, s.PhysicalBytes, s.UsefulBytes, s.Density(), s.MeanAccess)
}

// Analyze computes Stats for a set of physical accesses against the
// useful (requested) runs. Its one allocation is the offset-sorted copy
// of physical that UniqueBytes is counted over.
func Analyze(physical, useful []grid.Run) Stats {
	st := Stats{
		Accesses:      len(physical),
		PhysicalBytes: grid.TotalBytes(physical),
		UsefulBytes:   grid.TotalBytes(useful),
	}
	sorted := slices.Clone(physical)
	slices.SortFunc(sorted, byOffset)
	// One pass over the sorted accesses: each adds what it reaches past
	// the highest byte seen so far.
	hi := int64(math.MinInt64)
	for _, r := range sorted {
		if lo := max(r.Offset, hi); r.End() > lo {
			st.UniqueBytes += r.End() - lo
		}
		hi = max(hi, r.End())
	}
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

func byOffset(a, b grid.Run) int { return cmp.Compare(a.Offset, b.Offset) }

// Map rasterizes accesses over a file of the given size into bins
// fractions in [0, 1]: bin value = fraction of its bytes touched. This
// is the data behind the Fig 9 visualization (dark block = read).
func Map(accesses []grid.Run, fileSize int64, bins int) []float64 {
	out := make([]float64, bins)
	if fileSize <= 0 || bins <= 0 {
		return out
	}
	binSize := float64(fileSize) / float64(bins)
	sorted := slices.Clone(accesses)
	slices.SortFunc(sorted, byOffset)
	for _, r := range grid.CoalesceRuns(sorted) {
		lo, hi := r.Offset, r.End()
		if hi > fileSize {
			hi = fileSize
		}
		b0 := int(float64(lo) / binSize)
		b1 := int(float64(hi-1) / binSize)
		for b := b0; b <= b1 && b < bins; b++ {
			blo := float64(b) * binSize
			bhi := blo + binSize
			ov := minf(float64(hi), bhi) - maxf(float64(lo), blo)
			if ov > 0 {
				out[b] += ov / binSize
			}
		}
	}
	for i, v := range out {
		if v > 1 {
			out[i] = 1
		}
	}
	return out
}

// ASCIIMap renders the bin fractions as rows of width columns using
// shade characters, the terminal version of Fig 9.
func ASCIIMap(fracs []float64, width int) string {
	const shades = " .:-=+*#%@"
	var b strings.Builder
	for i, f := range fracs {
		if i > 0 && i%width == 0 {
			b.WriteByte('\n')
		}
		idx := int(f * float64(len(shades)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(shades) {
			idx = len(shades) - 1
		}
		b.WriteByte(shades[idx])
	}
	return b.String()
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
