package runstore

import (
	"math"

	"bgpvr/internal/stats"
	"bgpvr/internal/telemetry"
)

// Series is one metric's trajectory over the stored runs, oldest
// first. Runs that do not carry the metric hold NaN, so every series
// is index-aligned with the record list.
type Series struct {
	Name   string
	Unit   string         // picks the formatter (telemetry.FormatValue)
	Gate   telemetry.Gate // which direction is worse
	Values []float64
}

// Valid returns how many entries are usable (finite) observations.
func (s Series) Valid() int {
	n := 0
	for _, v := range s.Values {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			n++
		}
	}
	return n
}

// Last returns the newest usable observation (NaN when there is none).
func (s Series) Last() float64 {
	for i := len(s.Values) - 1; i >= 0; i-- {
		if !math.IsNaN(s.Values[i]) && !math.IsInf(s.Values[i], 0) {
			return s.Values[i]
		}
	}
	return math.NaN()
}

// Metrics transposes the records' own metric lists
// (telemetry.Report.Metrics) into one series per name, in order of
// first appearance. What a report holds and what it is called is
// decided there and nowhere else; this function knows no metric.
func Metrics(recs []Record) []Series {
	var out []Series
	index := map[string]int{}
	for i, rec := range recs {
		if rec.Report == nil {
			continue
		}
		for _, m := range rec.Report.Metrics() {
			j, ok := index[m.Name]
			if !ok {
				j = len(out)
				index[m.Name] = j
				vals := make([]float64, len(recs))
				for k := range vals {
					vals[k] = math.NaN()
				}
				out = append(out, Series{Name: m.Name, Unit: m.Unit, Gate: m.Gate, Values: vals})
			}
			out[j].Values[i] = m.Value
		}
	}
	return out
}

// Changepoint is a detected level shift in a metric series.
type Changepoint struct {
	// Index is the first run of the shifted segment.
	Index int
	// Before and After are the segment means either side of the split.
	Before, After float64
	// Shift is the relative change (After-Before)/|Before|.
	Shift float64
}

// DetectChange runs a rolling changepoint test over the series: every
// split point with at least minSeg usable observations on each side is
// scored by the relative shift between the segment means, and the
// strongest split is returned when its magnitude exceeds relThreshold
// (e.g. 0.10 for 10%). NaN entries are ignored. Returns nil when no
// split clears the threshold — the cross-run analogue of perfdiff's
// pairwise gate, catching slow drift and step changes that any single
// pair of runs would miss.
func DetectChange(vals []float64, minSeg int, relThreshold float64) *Changepoint {
	if minSeg < 1 {
		minSeg = 1
	}
	var best *Changepoint
	for split := 1; split < len(vals); split++ {
		before, after := segMean(vals[:split]), segMean(vals[split:])
		if before.N < minSeg || after.N < minSeg || before.Mean() == 0 {
			continue
		}
		shift := (after.Mean() - before.Mean()) / math.Abs(before.Mean())
		if math.Abs(shift) <= relThreshold {
			continue
		}
		if best == nil || math.Abs(shift) > math.Abs(best.Shift) {
			best = &Changepoint{Index: split, Before: before.Mean(), After: after.Mean(), Shift: shift}
		}
	}
	return best
}

func segMean(vals []float64) stats.Summary {
	var s stats.Summary
	for _, v := range vals {
		if math.IsInf(v, 0) {
			continue
		}
		s.Add(v) // Summary.Add already rejects NaN
	}
	return s
}
