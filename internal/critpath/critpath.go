// Package critpath explains which ranks and which dependencies set a
// frame's end-to-end time. It assembles a causal event graph from two
// inputs: per-rank activity spans (package trace) and explicit
// dependency edges recorded at the points where ranks synchronize —
// point-to-point send→recv matches in the comm runtime, collective
// barriers, the MPI-IO aggregator exchange, and the compositing
// fragment exchange. Both pipelines feed it: real mode records edges
// live through a Recorder attached to the comm.World, and model mode
// lays the virtual frame out as per-rank nodes directly.
//
// On top of the graph, Analyze extracts the critical path with
// per-phase attribution ("the frame spends 78% of its path in render
// on rank 12"), per-phase slack and load-imbalance metrics (max/mean,
// coefficient of variation, Gini over per-rank busy time), straggler
// top-k reports, and a what-if estimator that bounds the speedup
// available from perfectly balancing one phase.
//
// # Overhead discipline
//
// The recording entry points follow the contract of packages trace and
// telemetry: every method is a no-op on the nil receiver, the hooks
// allocate nothing when recording is off (pinned by AllocsPerRun
// tests), and the modeled times with recording on are bit-identical to
// the times with it off (graph assembly is purely observational).
package critpath

import (
	"sort"
	"sync"

	"bgpvr/internal/trace"
)

// DepKind classifies one recorded dependency edge by the
// synchronization point that produced it.
type DepKind uint8

// The dependency kinds. DepAuto is the comm runtime's "classify by
// message tag" sentinel; it is never stored in a graph.
const (
	DepAuto DepKind = iota
	// DepMessage is a plain point-to-point send→recv match.
	DepMessage
	// DepBarrier is a collective barrier round (dissemination signal).
	DepBarrier
	// DepCollective is an internal exchange of a collective operation
	// (bcast, reduce, all-to-all).
	DepCollective
	// DepAggregator is the MPI-IO two-phase exchange with an I/O
	// aggregator (request scatter or data reply).
	DepAggregator
	// DepFragment is a compositing fragment or tile exchange.
	DepFragment
)

func (k DepKind) String() string {
	switch k {
	case DepAuto:
		return "auto"
	case DepMessage:
		return "message"
	case DepBarrier:
		return "barrier"
	case DepCollective:
		return "collective"
	case DepAggregator:
		return "aggregator"
	case DepFragment:
		return "fragment"
	}
	return "unknown"
}

// Dep is one causal dependency edge: rank Dst could not pass time DstT
// until rank Src reached time SrcT. SrcT <= DstT in every
// happens-before recording.
type Dep struct {
	Kind       DepKind
	Src, Dst   int
	SrcT, DstT float64 // seconds since the run's epoch
	Bytes      int64
}

// Recorder collects dependency edges while a real-mode run executes.
// The nil *Recorder is a valid no-op: instrumented paths carry a
// possibly-nil handle and pay one predictable branch when recording is
// off. Record is safe for concurrent use.
type Recorder struct {
	clock func() float64

	mu   sync.Mutex
	deps []Dep
}

// NewRecorder creates a recorder whose timestamps come from the given
// tracer's clock (seconds since the tracer's epoch, so edges line up
// with the tracer's spans). capHint pre-sizes the edge log; recording
// within the hint allocates nothing.
func NewRecorder(tr *trace.Tracer, capHint int) *Recorder {
	if capHint < 0 {
		capHint = 0
	}
	return &Recorder{clock: tr.Now, deps: make([]Dep, 0, capHint)}
}

// Now returns the recorder's clock reading (0 on the nil recorder).
func (r *Recorder) Now() float64 {
	if r == nil {
		return 0
	}
	return r.clock()
}

// Record appends one dependency edge. No-op on the nil receiver;
// allocation-free within the capacity hint.
func (r *Recorder) Record(kind DepKind, src, dst int, srcT, dstT float64, bytes int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.deps = append(r.deps, Dep{Kind: kind, Src: src, Dst: dst, SrcT: srcT, DstT: dstT, Bytes: bytes})
	r.mu.Unlock()
}

// Len returns the number of recorded edges (0 on nil).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.deps)
}

// Deps returns a copy of the recorded edges (nil on the nil recorder).
func (r *Recorder) Deps() []Dep {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Dep, len(r.deps))
	copy(out, r.deps)
	return out
}

// Graph is the assembled causal event graph of one frame: per-rank
// activity nodes plus the dependency edges between ranks. The nil
// *Graph is a valid no-op sink, so model-mode graph population costs
// nothing when no graph is attached.
//
// Storage is column-oriented with interned span names: a node costs
// ~24 bytes and an edge ~33 instead of the ~48 each of the
// struct-of-everything layout, and the prepared per-rank indices are
// flat int32 CSR arrays instead of per-rank slices. At 100K+ ranks a
// model-mode frame graph holds tens of millions of fragment edges, so
// halving the footprint is what keeps -critpath usable there.
type Graph struct {
	ranks int

	// Node columns: one activity interval on one rank's timeline;
	// names are interned into names/nameID. nNested marks a span
	// recorded inside another span of the same phase on the same rank:
	// the path walk uses nested nodes (they are the innermost wait
	// intervals), but busy-time aggregation skips them so a phase is
	// not double-counted.
	nRank   []int32
	nPhase  []uint8
	nName   []uint16
	nStart  []float64
	nEnd    []float64
	nNested []bool
	names   []string
	nameID  map[string]uint16

	// Dep columns.
	dKind  []uint8
	dSrc   []int32
	dDst   []int32
	dSrcT  []float64
	dDstT  []float64
	dBytes []int64

	// Built lazily by prepare():
	prepared bool
	prIdx    []int32   // node indices grouped by rank, ordered by start
	prOff    []int32   // rank r's indices are prIdx[prOff[r]:prOff[r+1]]
	meVals   []float64 // prefix max of node ends aligned with prIdx
	diIdx    []int32   // dep indices grouped by dst rank, ordered by DstT
	diOff    []int32
	end      float64
	endRank  int
}

// NewGraph creates an empty graph over the given number of ranks.
func NewGraph(ranks int) *Graph {
	if ranks < 0 {
		ranks = 0
	}
	return &Graph{ranks: ranks, endRank: -1}
}

// NumNodes returns the stored node count (0 on nil).
func (g *Graph) NumNodes() int {
	if g == nil {
		return 0
	}
	return len(g.nStart)
}

// NumDeps returns the dependency edge count (0 on nil).
func (g *Graph) NumDeps() int {
	if g == nil {
		return 0
	}
	return len(g.dSrcT)
}

// dep materializes edge i from the columns.
func (g *Graph) dep(i int32) Dep {
	return Dep{
		Kind: DepKind(g.dKind[i]), Src: int(g.dSrc[i]), Dst: int(g.dDst[i]),
		SrcT: g.dSrcT[i], DstT: g.dDstT[i], Bytes: g.dBytes[i],
	}
}

// intern returns the id of name, registering it on first use. The id
// space is 16-bit; a graph with more distinct names than that folds
// the overflow onto one catch-all id (span names are a small fixed
// vocabulary in both pipelines, so this is a guard, not a path).
func (g *Graph) intern(name string) uint16 {
	if g.nameID == nil {
		g.nameID = make(map[string]uint16, 16)
	}
	if id, ok := g.nameID[name]; ok {
		return id
	}
	if len(g.names) >= 1<<16 {
		return g.nameID["…"]
	}
	id := uint16(len(g.names))
	g.names = append(g.names, name)
	g.nameID[name] = id
	return id
}

// Ranks returns the rank count (0 on nil).
func (g *Graph) Ranks() int {
	if g == nil {
		return 0
	}
	return g.ranks
}

// addSpan is the single append point for both pipelines.
func (g *Graph) addSpan(rank int32, phase trace.Phase, name string, start, end float64, nested bool) {
	g.nRank = append(g.nRank, rank)
	g.nPhase = append(g.nPhase, uint8(phase))
	g.nName = append(g.nName, g.intern(name))
	g.nStart = append(g.nStart, start)
	g.nEnd = append(g.nEnd, end)
	g.nNested = append(g.nNested, nested)
	g.prepared = false
}

// AddNode appends one activity interval. No-op on the nil receiver or
// for out-of-range ranks and non-positive durations.
func (g *Graph) AddNode(rank int, phase trace.Phase, name string, start, dur float64) {
	if g == nil || rank < 0 || rank >= g.ranks || dur <= 0 {
		return
	}
	g.addSpan(int32(rank), phase, name, start, start+dur, false)
}

// AddNodeEnd is AddNode with an explicit end time, for callers that
// must preserve a cumulative timeline bit-exactly (model mode sums
// stage times in a fixed order; recomputing start+dur would reorder
// the float additions).
func (g *Graph) AddNodeEnd(rank int, phase trace.Phase, name string, start, end float64) {
	if g == nil || rank < 0 || rank >= g.ranks || end <= start {
		return
	}
	g.addSpan(int32(rank), phase, name, start, end, false)
}

// AddDep appends one dependency edge. No-op on nil or for edges with
// out-of-range endpoints.
func (g *Graph) AddDep(d Dep) {
	if g == nil || d.Src < 0 || d.Src >= g.ranks || d.Dst < 0 || d.Dst >= g.ranks {
		return
	}
	g.dKind = append(g.dKind, uint8(d.Kind))
	g.dSrc = append(g.dSrc, int32(d.Src))
	g.dDst = append(g.dDst, int32(d.Dst))
	g.dSrcT = append(g.dSrcT, d.SrcT)
	g.dDstT = append(g.dDstT, d.DstT)
	g.dBytes = append(g.dBytes, d.Bytes)
	g.prepared = false
}

// End returns the frame's end time: the maximum node end (0 when
// empty).
func (g *Graph) End() float64 {
	if g == nil {
		return 0
	}
	g.prepare()
	return g.end
}

// FromTrace assembles a real-mode graph: every recorded span becomes a
// node (nested same-phase spans included — they are the innermost wait
// intervals the path walk attributes to), and the recorder's edges
// become the cross-rank dependencies.
func FromTrace(tr *trace.Tracer, rec *Recorder) *Graph {
	g := NewGraph(tr.Size())
	for _, e := range tr.Events() {
		if e.Rank < 0 || e.Rank >= g.ranks || e.Dur <= 0 {
			continue
		}
		g.addSpan(int32(e.Rank), e.Phase, e.Name, e.Start, e.Start+e.Dur, e.Nested)
	}
	for _, d := range rec.Deps() {
		g.AddDep(d)
	}
	return g
}

// prepare builds the flat per-rank indices the analyses walk: a CSR
// grouping of node indices by rank (start-ordered within each rank,
// with an aligned prefix-max-of-ends array) and of dep indices by dst
// rank (DstT-ordered). Counting sort for the grouping keeps insertion
// order within a rank, so the stable time sorts break ties exactly as
// the per-rank append slices used to.
func (g *Graph) prepare() {
	if g == nil || g.prepared {
		return
	}
	n := len(g.nStart)
	g.end, g.endRank = 0, -1
	for i := 0; i < n; i++ {
		if g.nEnd[i] > g.end || g.endRank < 0 {
			g.end, g.endRank = g.nEnd[i], int(g.nRank[i])
		}
	}
	g.prOff = make([]int32, g.ranks+1)
	for _, r := range g.nRank {
		g.prOff[r+1]++
	}
	for r := 0; r < g.ranks; r++ {
		g.prOff[r+1] += g.prOff[r]
	}
	g.prIdx = make([]int32, n)
	pos := make([]int32, g.ranks)
	copy(pos, g.prOff[:g.ranks])
	for i := 0; i < n; i++ {
		r := g.nRank[i]
		g.prIdx[pos[r]] = int32(i)
		pos[r]++
	}
	g.meVals = make([]float64, n)
	for r := 0; r < g.ranks; r++ {
		idx := g.prIdx[g.prOff[r]:g.prOff[r+1]]
		sortByKey(idx, func(i int32) float64 { return g.nStart[i] })
		me := g.meVals[g.prOff[r]:g.prOff[r+1]]
		for j, ni := range idx {
			me[j] = g.nEnd[ni]
			if j > 0 && me[j-1] > me[j] {
				me[j] = me[j-1]
			}
		}
	}
	m := len(g.dSrcT)
	g.diOff = make([]int32, g.ranks+1)
	for _, d := range g.dDst {
		g.diOff[d+1]++
	}
	for r := 0; r < g.ranks; r++ {
		g.diOff[r+1] += g.diOff[r]
	}
	g.diIdx = make([]int32, m)
	copy(pos, g.diOff[:g.ranks])
	for i := 0; i < m; i++ {
		d := g.dDst[i]
		g.diIdx[pos[d]] = int32(i)
		pos[d]++
	}
	for r := 0; r < g.ranks; r++ {
		sortByKey(g.diIdx[g.diOff[r]:g.diOff[r+1]], func(i int32) float64 { return g.dDstT[i] })
	}
	g.prepared = true
}

// sortByKey sorts idx ascending by key, stably, so same-timestamp
// entries keep their recording order.
func sortByKey(idx []int32, key func(int32) float64) {
	sort.SliceStable(idx, func(a, b int) bool { return key(idx[a]) < key(idx[b]) })
}
