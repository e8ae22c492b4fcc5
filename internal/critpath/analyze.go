package critpath

import (
	"sort"

	"bgpvr/internal/stats"
	"bgpvr/internal/trace"
)

// eps absorbs float rounding when comparing timestamps: two events
// within a nanosecond are treated as simultaneous.
const eps = 1e-9

// Segment is one stretch of the critical path: time [Start, End] spent
// on one rank, attributed to the innermost activity covering it. Idle
// stretches (the rank had no open span) carry PhaseOther and the name
// "idle".
type Segment struct {
	Rank  int
	Phase trace.Phase
	Name  string
	Start float64
	End   float64
}

// Dur returns the segment's duration.
func (s Segment) Dur() float64 { return s.End - s.Start }

// Path is the extracted critical path of one frame.
type Path struct {
	// Segments in ascending time order; adjacent segments with the
	// same rank, phase, and name are merged.
	Segments []Segment
	// End is the frame's end time (the latest node end); Start is
	// where the backward walk terminated.
	Start, End float64
	// PhaseSec attributes the path's duration to phases; IdleSec is
	// the portion of PhaseSec[PhaseOther] spent with no span open.
	PhaseSec [trace.NumPhases]float64
	IdleSec  float64
	// Hops counts the cross-rank dependency edges the path traversed.
	Hops int
}

// Total returns the path duration End-Start.
func (p Path) Total() float64 { return p.End - p.Start }

// DominantPhase returns the phase holding the largest share of the
// path.
func (p Path) DominantPhase() trace.Phase {
	best := trace.PhaseOther
	for ph := trace.Phase(0); ph < trace.NumPhases; ph++ {
		if p.PhaseSec[ph] > p.PhaseSec[best] {
			best = ph
		}
	}
	return best
}

// CriticalPath walks the graph backward from the frame's latest node
// end. At each point it finds the latest dependency edge into the
// current rank that actually blocked it — the sender arrived no
// earlier than the receiver started waiting — attributes the interval
// in between to the innermost covering spans, and jumps to the sender.
// With no blocking edge left, the walk attributes back to the rank's
// first activity and stops. The empty graph yields a zero Path.
func (g *Graph) CriticalPath() Path {
	var p Path
	if g == nil {
		return p
	}
	g.prepare()
	if g.endRank < 0 {
		return p
	}
	rank, t := g.endRank, g.end
	p.End = g.end
	used := make([]bool, len(g.dSrcT))
	var rev []Segment // built backward in time
	// Every iteration either consumes at least one dep edge (marks it
	// used) or ends the walk, so the loop is bounded.
	for iter := 0; iter <= len(g.dSrcT)+1; iter++ {
		di := g.blockingDep(rank, t, used)
		if di < 0 {
			start := g.firstStart(rank, t)
			if start > t {
				start = t
			}
			g.attribute(&rev, &p, rank, start, t)
			p.Start = start
			break
		}
		d := g.dep(int32(di))
		used[di] = true
		cut := d.DstT
		if cut > t {
			cut = t
		}
		g.attribute(&rev, &p, rank, cut, t)
		p.Hops++
		next := d.SrcT
		if next > cut {
			next = cut // never move forward in time
		}
		if cut > next+eps {
			// The receiver's wait the edge unblocked: [SrcT, DstT] stays
			// on the path, attributed to the waiting span (a recv inside
			// a barrier reads as comm) or to idle skew.
			g.attribute(&rev, &p, rank, next, cut)
		}
		rank = d.Src
		t = next
	}
	// Reverse into ascending order, merging same-activity neighbors.
	for i := len(rev) - 1; i >= 0; i-- {
		s := rev[i]
		if s.End-s.Start <= 0 {
			continue
		}
		if n := len(p.Segments); n > 0 {
			last := &p.Segments[n-1]
			if last.Rank == s.Rank && last.Phase == s.Phase && last.Name == s.Name && s.Start <= last.End+eps {
				if s.End > last.End {
					last.End = s.End
				}
				continue
			}
		}
		p.Segments = append(p.Segments, s)
	}
	return p
}

// blockingDep returns the unused dependency edge into rank with the
// latest DstT <= t that actually blocked it, or -1. When several
// blocking edges share that DstT (a barrier release tied with fragment
// arrivals), the one whose sender finished last wins — it is the
// dependency that really gated the receiver. Self edges, non-blocking
// edges, and displaced ties are marked used so the scans stay linear
// over the whole walk.
func (g *Graph) blockingDep(rank int, t float64, used []bool) int {
	in := g.diIdx[g.diOff[rank]:g.diOff[rank+1]]
	pos := sort.Search(len(in), func(i int) bool { return g.dDstT[in[i]] > t+eps })
	best := -1
	for j := pos - 1; j >= 0; j-- {
		di := int(in[j])
		if used[di] {
			continue
		}
		if best >= 0 && g.dDstT[di] < g.dDstT[best]-eps {
			break // left the latest-DstT tier
		}
		if int(g.dSrc[di]) == rank {
			used[di] = true
			continue
		}
		if g.dSrcT[di] < g.waitStart(rank, g.dDstT[di])-eps {
			// The receiver was still busy when the sender arrived:
			// the edge did not block, so it cannot carry the path.
			used[di] = true
			continue
		}
		switch {
		case best < 0:
			best = di
		case g.dSrcT[di] > g.dSrcT[best]:
			used[best] = true
			best = di
		default:
			used[di] = true
		}
	}
	return best
}

// waitStart returns when rank started waiting for an edge satisfied at
// time t: the start of the innermost span covering t, or — if the rank
// was idle at t — the end of its previous activity (0 with none).
func (g *Graph) waitStart(rank int, t float64) float64 {
	if ni := g.covering(rank, t); ni >= 0 {
		return g.nStart[ni]
	}
	off := int(g.prOff[rank])
	idx := g.prIdx[off:g.prOff[rank+1]]
	pos := sort.Search(len(idx), func(i int) bool { return g.nStart[idx[i]] >= t })
	if pos == 0 {
		return 0
	}
	return g.meVals[off+pos-1]
}

// covering returns the innermost node on rank covering time t (Start
// strictly before t, End at or after t within eps), or -1. The
// backward scan is pruned by the prefix-max of node ends.
func (g *Graph) covering(rank int, t float64) int {
	off := int(g.prOff[rank])
	idx := g.prIdx[off:g.prOff[rank+1]]
	pos := sort.Search(len(idx), func(i int) bool { return g.nStart[idx[i]] >= t })
	for j := pos - 1; j >= 0; j-- {
		if g.meVals[off+j] < t-eps {
			break // nothing earlier reaches t
		}
		if g.nEnd[idx[j]] >= t-eps {
			return int(idx[j])
		}
	}
	return -1
}

// firstStart returns the start of rank's first activity, or fallback
// when the rank recorded none.
func (g *Graph) firstStart(rank int, fallback float64) float64 {
	idx := g.prIdx[g.prOff[rank]:g.prOff[rank+1]]
	if len(idx) == 0 {
		return fallback
	}
	return g.nStart[idx[0]]
}

// attribute splits [a, b] on rank into segments by the innermost
// covering spans, appending them to out in reverse time order and
// accumulating the path's phase totals.
func (g *Graph) attribute(out *[]Segment, p *Path, rank int, a, b float64) {
	t := b
	off := int(g.prOff[rank])
	idx := g.prIdx[off:g.prOff[rank+1]]
	guard := 2*len(idx) + 4
	for t > a+eps && guard > 0 {
		guard--
		if ni := g.covering(rank, t); ni >= 0 {
			ph := trace.Phase(g.nPhase[ni])
			lo := g.nStart[ni]
			if lo < a {
				lo = a
			}
			*out = append(*out, Segment{Rank: rank, Phase: ph, Name: g.names[g.nName[ni]], Start: lo, End: t})
			p.PhaseSec[ph] += t - lo
			t = lo
			continue
		}
		// Idle gap: back to the end of the last activity before t.
		lo := a
		pos := sort.Search(len(idx), func(i int) bool { return g.nStart[idx[i]] >= t })
		if pos > 0 && g.meVals[off+pos-1] > lo {
			lo = g.meVals[off+pos-1]
		}
		*out = append(*out, Segment{Rank: rank, Phase: trace.PhaseOther, Name: "idle", Start: lo, End: t})
		p.PhaseSec[trace.PhaseOther] += t - lo
		p.IdleSec += t - lo
		t = lo
	}
}

// BusyByPhase returns, for each phase, the per-rank busy seconds (the
// sum of non-nested span durations, folded in insertion order).
func (g *Graph) BusyByPhase() [trace.NumPhases][]float64 {
	var out [trace.NumPhases][]float64
	if g == nil {
		return out
	}
	for ph := range out {
		out[ph] = make([]float64, g.ranks)
	}
	for i := range g.nStart {
		if g.nNested[i] {
			continue
		}
		out[g.nPhase[i]][g.nRank[i]] += g.nEnd[i] - g.nStart[i]
	}
	return out
}

// Straggler is one of the most-loaded ranks of a phase.
type Straggler struct {
	Rank    int     `json:"rank"`
	BusySec float64 `json:"busy_sec"`
	VsMean  float64 `json:"vs_mean"` // busy / mean busy
}

// PhaseImbalance summarizes the per-rank busy-time distribution of one
// phase.
type PhaseImbalance struct {
	Phase      string      `json:"phase"`
	MeanSec    float64     `json:"mean_sec"`
	MaxSec     float64     `json:"max_sec"`
	MinSec     float64     `json:"min_sec"`
	P95Sec     float64     `json:"p95_sec"`
	Imbalance  float64     `json:"imbalance"` // max/mean, 1.0 = balanced
	CoV        float64     `json:"cov"`
	Gini       float64     `json:"gini"`
	SlackSec   float64     `json:"slack_sec"` // mean idle below the slowest rank: max - mean
	Stragglers []Straggler `json:"stragglers,omitempty"`
}

// WhatIf is the estimator's answer for one phase: the frame time if
// that phase's load were spread perfectly evenly, with everything else
// unchanged. The estimate replays the frame with the phase's slowest
// rank sped up to the mean, so EstimatedSec <= the actual frame time.
type WhatIf struct {
	Phase        string  `json:"phase"`
	EstimatedSec float64 `json:"estimated_sec"`
	SavedSec     float64 `json:"saved_sec"`
	Speedup      float64 `json:"speedup"`
}

// PathSegment is the JSON view of one critical-path segment.
type PathSegment struct {
	Rank     int     `json:"rank"`
	Phase    string  `json:"phase"`
	Name     string  `json:"name"`
	StartSec float64 `json:"start_sec"`
	DurSec   float64 `json:"dur_sec"`
}

// Analysis is the full critical-path and load-imbalance report of one
// frame, ready for JSON export.
type Analysis struct {
	Ranks        int                `json:"ranks"`
	Deps         int                `json:"deps"`
	DepsByKind   map[string]int     `json:"deps_by_kind,omitempty"`
	TotalSec     float64            `json:"total_sec"` // frame end-to-end time (graph end)
	PathSec      float64            `json:"path_sec"`  // critical-path duration
	IdleSec      float64            `json:"idle_sec"`
	Hops         int                `json:"hops"`
	Dominant     string             `json:"dominant_phase"`
	PathPhaseSec map[string]float64 `json:"path_phase_sec"`
	Path         []PathSegment      `json:"path,omitempty"`
	Phases       []PhaseImbalance   `json:"phases,omitempty"`
	WhatIf       []WhatIf           `json:"what_if,omitempty"`
}

// stagePhases are the phases the what-if estimator considers: the
// pipeline stages whose load a rebalancer could redistribute.
var stagePhases = []trace.Phase{trace.PhaseIO, trace.PhaseRender, trace.PhaseComposite}

// Analyze extracts the critical path and the per-phase imbalance
// metrics from the graph, keeping the topK most-loaded ranks of each
// phase as stragglers. A nil or empty graph yields a zero Analysis.
func Analyze(g *Graph, topK int) *Analysis {
	a := &Analysis{
		Ranks:        g.Ranks(),
		Deps:         g.NumDeps(),
		PathPhaseSec: map[string]float64{},
	}
	if g.NumNodes() == 0 {
		return a
	}
	if a.Deps > 0 {
		a.DepsByKind = map[string]int{}
		for _, k := range g.dKind {
			a.DepsByKind[DepKind(k).String()]++
		}
	}

	a.TotalSec = g.End()
	p := g.CriticalPath()
	a.PathSec = p.Total()
	a.IdleSec = p.IdleSec
	a.Hops = p.Hops
	a.Dominant = p.DominantPhase().String()
	for ph := trace.Phase(0); ph < trace.NumPhases; ph++ {
		if p.PhaseSec[ph] > 0 {
			a.PathPhaseSec[ph.String()] = p.PhaseSec[ph]
		}
	}
	for _, s := range p.Segments {
		a.Path = append(a.Path, PathSegment{
			Rank: s.Rank, Phase: s.Phase.String(), Name: s.Name,
			StartSec: s.Start, DurSec: s.Dur(),
		})
	}

	busy := g.BusyByPhase()
	for ph := trace.Phase(0); ph < trace.NumPhases; ph++ {
		xs := busy[ph]
		var s stats.Summary
		for _, x := range xs {
			s.Add(x)
		}
		if s.MaxV <= 0 {
			continue // phase not present
		}
		pi := PhaseImbalance{
			Phase:     ph.String(),
			MeanSec:   s.Mean(),
			MaxSec:    s.MaxV,
			MinSec:    s.MinV,
			P95Sec:    stats.Quantile(xs, 0.95),
			Imbalance: s.Imbalance(),
			CoV:       s.CoV(),
			Gini:      stats.Gini(xs),
			SlackSec:  s.MaxV - s.Mean(),
		}
		pi.Stragglers = stragglers(xs, s.Mean(), topK)
		a.Phases = append(a.Phases, pi)
	}

	for _, ph := range stagePhases {
		var s stats.Summary
		for _, x := range busy[ph] {
			s.Add(x)
		}
		if s.MaxV <= 0 {
			continue
		}
		saved := s.MaxV - s.Mean()
		est := a.TotalSec - saved
		if est < 0 {
			est = 0
		}
		w := WhatIf{Phase: ph.String(), EstimatedSec: est, SavedSec: saved, Speedup: 1}
		if est > 0 {
			w.Speedup = a.TotalSec / est
		}
		a.WhatIf = append(a.WhatIf, w)
	}
	return a
}

// stragglers returns the topK most-loaded ranks, most loaded first;
// ties break toward the lower rank.
func stragglers(xs []float64, mean float64, topK int) []Straggler {
	if topK <= 0 || len(xs) == 0 {
		return nil
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] > xs[idx[b]] })
	if topK > len(idx) {
		topK = len(idx)
	}
	out := make([]Straggler, 0, topK)
	for _, r := range idx[:topK] {
		st := Straggler{Rank: r, BusySec: xs[r], VsMean: 1}
		if mean > 0 {
			st.VsMean = xs[r] / mean
		}
		out = append(out, st)
	}
	return out
}

// PhaseInfo returns the imbalance entry for the named phase, or nil.
func (a *Analysis) PhaseInfo(phase string) *PhaseImbalance {
	if a == nil {
		return nil
	}
	for i := range a.Phases {
		if a.Phases[i].Phase == phase {
			return &a.Phases[i]
		}
	}
	return nil
}

// WhatIfFor returns the what-if entry for the named phase, or nil.
func (a *Analysis) WhatIfFor(phase string) *WhatIf {
	if a == nil {
		return nil
	}
	for i := range a.WhatIf {
		if a.WhatIf[i].Phase == phase {
			return &a.WhatIf[i]
		}
	}
	return nil
}
