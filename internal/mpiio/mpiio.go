// Package mpiio implements the collective I/O layer the paper's reads
// go through: ROMIO-style two-phase collective reads with I/O
// aggregators, data sieving, and tunable hints (the paper's §V tuning
// sets the collective buffer size to the netCDF record size).
//
// # Two-phase model
//
// The aggregate byte range of all requests is divided into contiguous
// file domains, one per aggregator. Each aggregator walks its domain in
// windows of CBBufferSize and reads, in one contiguous access, every
// window that contains at least one requested byte (clamped to the
// first/last requested byte of the whole domain). It then scatters the
// requested fragments to their ranks. "Read a large contiguous region,
// then distribute the small noncontiguous regions of interest" is
// exactly the behaviour Thakur et al. describe for ROMIO and the paper
// observes on BG/P:
//
//   - untuned netCDF record files (windows much larger than a record)
//     read nearly the whole file — Fig 9 left;
//   - tuning the window to the record size skips the windows holding
//     other variables' records and reads about twice the useful bytes
//     (each record straddles two windows) — Fig 9 center;
//   - contiguous layouts (raw, HDF5-like, CDF-5 fixed variables) are
//     read at density ~1 — Fig 9 right.
//
// Planning (which physical accesses happen) is separated from execution
// so the machine model can plan at 32K-core scale without moving bytes,
// while real mode executes the identical plan over the comm runtime.
package mpiio

import (
	"fmt"
	"io"
	"math"
	"sort"

	"bgpvr/internal/comm"
	"bgpvr/internal/critpath"
	"bgpvr/internal/grid"
	"bgpvr/internal/iotrace"
	"bgpvr/internal/obs"
	"bgpvr/internal/trace"
	"bgpvr/internal/vfile"
)

// Live observability for the two-phase read: stagePhase ticks once per
// collective-buffer window an aggregator walks (sessions from the
// concurrent per-rank aggregators of one collective overlap and
// accumulate), and the counters mirror the physical-access trace
// counters into /metrics.
var (
	stagePhase     = obs.GetPhase("mpiio-stage")
	cStageAccesses = obs.Default.NewCounter("bgpvr_mpiio_accesses_total",
		"Physical file accesses issued by I/O aggregators.")
	cStageBytes = obs.Default.NewCounter("bgpvr_mpiio_staged_bytes_total",
		"Bytes physically read into collective buffers.")
)

// DefaultCBBufferSize is the untuned collective buffer size. ROMIO's
// stock default is 4 MB; BG/P deployments shipped larger collective
// buffers, and 16 MB reproduces the ~15 MB accesses of Fig 9 (left).
const DefaultCBBufferSize = 16 << 20

// Hints are the MPI-IO tuning knobs used by the paper.
type Hints struct {
	// CBBufferSize is the collective buffer (window) size in bytes.
	// Zero means DefaultCBBufferSize.
	CBBufferSize int64
	// CBNodes is the number of I/O aggregators. Zero means one.
	CBNodes int
}

func (h Hints) window() int64 {
	if h.CBBufferSize <= 0 {
		return DefaultCBBufferSize
	}
	return h.CBBufferSize
}

func (h Hints) aggregators(p int) int {
	a := h.CBNodes
	if a <= 0 {
		a = 1
	}
	if a > p {
		a = p
	}
	return a
}

// AggRank returns the world rank acting as aggregator i of a, spreading
// aggregators evenly across the rank space (ROMIO spreads them across
// nodes the same way).
func AggRank(i, a, p int) int { return i * p / a }

// Plan is the physical-access schedule of one collective read.
type Plan struct {
	Span     grid.Run   // [first, last) requested byte over all ranks
	Domains  []grid.Run // per-aggregator file domain
	Accesses []grid.Run // physical reads, in issue order across aggregators
	// PerAggAccesses counts the accesses each aggregator issues.
	PerAggAccesses []int
	UsefulBytes    int64
}

// Stats summarizes the plan with the paper's data-density metric.
func (p *Plan) Stats() iotrace.Stats {
	st := iotrace.Analyze(p.Accesses, nil)
	st.UsefulBytes = p.UsefulBytes
	return st
}

// BuildPlan computes the two-phase physical accesses for the union of
// all requested runs. union must be sorted by offset and non-overlapping
// (grid.CoalesceRuns output); it is what every format's VarRuns already
// produces for a whole-variable collective read.
func BuildPlan(union []grid.Run, h Hints) *Plan {
	p := &Plan{UsefulBytes: grid.TotalBytes(union)}
	if len(union) == 0 {
		return p
	}
	st := union[0].Offset
	end := union[len(union)-1].End()
	p.Span = grid.Run{Offset: st, Length: end - st}

	a := h.CBNodes
	if a < 1 {
		a = 1
	}
	w := h.window()
	domLen := (end - st + int64(a) - 1) / int64(a)
	if domLen < 1 {
		domLen = 1
	}
	ri := 0 // index into union
	for d := 0; d < a; d++ {
		dlo := st + int64(d)*domLen
		dhi := dlo + domLen
		if dhi > end {
			dhi = end
		}
		if dlo >= dhi {
			break
		}
		p.Domains = append(p.Domains, grid.Run{Offset: dlo, Length: dhi - dlo})
		// Advance to the first run intersecting this domain.
		for ri < len(union) && union[ri].End() <= dlo {
			ri++
		}
		nAcc := 0
		j := ri
		// First/last needed bytes within the domain clamp the window reads.
		firstNeeded := int64(-1)
		lastNeeded := int64(-1)
		for k := j; k < len(union) && union[k].Offset < dhi; k++ {
			lo := max64(union[k].Offset, dlo)
			hi := min64(union[k].End(), dhi)
			if lo < hi {
				if firstNeeded < 0 {
					firstNeeded = lo
				}
				lastNeeded = hi
			}
		}
		if firstNeeded < 0 {
			continue
		}
		for wlo := dlo; wlo < dhi; wlo += w {
			whi := min64(wlo+w, dhi)
			// Does any run intersect [wlo, whi)?
			for j < len(union) && union[j].End() <= wlo {
				j++
			}
			if j >= len(union) || union[j].Offset >= whi {
				continue // empty window: skipped
			}
			rlo := max64(wlo, firstNeeded)
			rhi := min64(whi, lastNeeded)
			if rlo >= rhi {
				continue
			}
			p.Accesses = append(p.Accesses, grid.Run{Offset: rlo, Length: rhi - rlo})
			nAcc++
		}
		p.PerAggAccesses = append(p.PerAggAccesses, nAcc)
	}
	return p
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// CollectiveRead performs a two-phase collective read over the comm
// runtime: every rank passes its own sorted, non-overlapping byte runs
// and receives the concatenated bytes of those runs. All ranks must call
// it together. The physical reads (and only those) hit f, so passing a
// vfile.Traced yields the Fig 9/10 access logs.
func CollectiveRead(c *comm.Comm, f vfile.File, myRuns []grid.Run, h Hints) ([]byte, error) {
	tr := c.Trace()
	sp := tr.Begin(trace.PhaseIO, "collective-read")
	defer sp.End()
	p := c.Size()
	a := h.aggregators(p)
	w := h.window()

	// Global span via allreduce.
	lo, hi := math.Inf(1), math.Inf(-1)
	if len(myRuns) > 0 {
		lo = float64(myRuns[0].Offset)
		hi = float64(myRuns[len(myRuns)-1].End())
	}
	mn := c.Allreduce([]float64{lo}, comm.OpMin)[0]
	mx := c.Allreduce([]float64{hi}, comm.OpMax)[0]
	if math.IsInf(mn, 1) {
		return nil, nil // nobody wants anything
	}
	st, end := int64(mn), int64(mx)
	domLen := (end - st + int64(a) - 1) / int64(a)
	if domLen < 1 {
		domLen = 1
	}
	domOf := func(off int64) int {
		d := int((off - st) / domLen)
		if d >= a {
			d = a - 1
		}
		return d
	}
	domBounds := func(d int) (int64, int64) {
		dlo := st + int64(d)*domLen
		dhi := min64(dlo+domLen, end)
		return dlo, dhi
	}

	// Split my runs into per-domain fragments (offset order preserved).
	frags := make([][]grid.Run, a)
	for _, r := range myRuns {
		off := r.Offset
		for off < r.End() {
			d := domOf(off)
			_, dhi := domBounds(d)
			l := min64(r.End(), dhi) - off
			frags[d] = append(frags[d], grid.Run{Offset: off, Length: l})
			off += l
		}
	}

	// Request exchange: encode fragments as int64 pairs to aggregators.
	reqSp := tr.Begin(trace.PhaseIO, "request-exchange")
	reqBufs := make([][]byte, p)
	for d := 0; d < a; d++ {
		if len(frags[d]) == 0 {
			continue
		}
		enc := make([]int64, 0, 2*len(frags[d]))
		for _, fr := range frags[d] {
			enc = append(enc, fr.Offset, fr.Length)
		}
		reqBufs[AggRank(d, a, p)] = comm.I64sToBytes(enc)
	}
	c.SetDepKind(critpath.DepAggregator)
	reqs := c.Alltoallv(reqBufs)
	c.SetDepKind(critpath.DepAuto)
	reqSp.End()

	// Aggregator work: decode requests, read windows, build replies.
	aggSp := tr.Begin(trace.PhaseIO, "aggregator-read")
	replies := make([][]byte, p)
	myAggIdx := -1
	for d := 0; d < a; d++ {
		if AggRank(d, a, p) == c.Rank() {
			myAggIdx = d
			break
		}
	}
	if myAggIdx >= 0 {
		type srcReq struct {
			src   int
			runs  []grid.Run
			reply []byte
		}
		var srcs []srcReq
		var needed []grid.Run
		for src := 0; src < p; src++ {
			enc := comm.BytesToI64s(reqs[src])
			if len(enc) == 0 {
				continue
			}
			runs := make([]grid.Run, len(enc)/2)
			var total int64
			for i := range runs {
				runs[i] = grid.Run{Offset: enc[2*i], Length: enc[2*i+1]}
				total += runs[i].Length
			}
			srcs = append(srcs, srcReq{src: src, runs: runs, reply: make([]byte, 0, total)})
			needed = append(needed, runs...)
		}
		if len(needed) > 0 {
			sort.Slice(needed, func(i, j int) bool { return needed[i].Offset < needed[j].Offset })
			needed = grid.CoalesceRuns(needed)
			dlo, dhi := domBounds(myAggIdx)
			firstNeeded := needed[0].Offset
			lastNeeded := needed[len(needed)-1].End()
			cursor := make([]int, len(srcs)) // per-src next fragment
			// A window never reads more than the domain holds, so a small
			// file does not cost a default 16 MB window per aggregator.
			buf := make([]byte, min64(w, dhi-dlo))
			ni := 0
			stagePhase.Start((dhi - dlo + w - 1) / w)
			defer stagePhase.End()
			for wlo := dlo; wlo < dhi; wlo += w {
				stagePhase.Add(1)
				whi := min64(wlo+w, dhi)
				for ni < len(needed) && needed[ni].End() <= wlo {
					ni++
				}
				if ni >= len(needed) || needed[ni].Offset >= whi {
					continue
				}
				rlo := max64(wlo, firstNeeded)
				rhi := min64(whi, lastNeeded)
				if rlo >= rhi {
					continue
				}
				b := buf[:rhi-rlo]
				if _, err := f.ReadAt(b, rlo); err != nil && err != io.EOF {
					return nil, fmt.Errorf("mpiio: aggregator read at %d: %w", rlo, err)
				}
				tr.Add(trace.CounterAccesses, 1)
				tr.Add(trace.CounterBytesRead, rhi-rlo)
				cStageAccesses.Inc()
				cStageBytes.Add(rhi - rlo)
				c.Net().ObserveAccess(rhi - rlo)
				// Scatter the window's fragments to each source's reply.
				for si := range srcs {
					for cursor[si] < len(srcs[si].runs) {
						fr := srcs[si].runs[cursor[si]]
						if fr.Offset >= whi {
							break
						}
						flo := max64(fr.Offset, wlo)
						fhi := min64(fr.End(), whi)
						if flo < fhi {
							srcs[si].reply = append(srcs[si].reply, b[flo-rlo:fhi-rlo]...)
						}
						if fr.End() <= whi {
							cursor[si]++
						} else {
							break // rest of the fragment is in a later window
						}
					}
				}
			}
			for _, s := range srcs {
				replies[s.src] = s.reply
			}
		}
	}
	aggSp.End()
	scatSp := tr.Begin(trace.PhaseIO, "scatter")
	c.SetDepKind(critpath.DepAggregator)
	got := c.Alltoallv(replies)
	c.SetDepKind(critpath.DepAuto)
	scatSp.End()

	// Reassemble: fragments per aggregator arrive in offset order; walk
	// my runs, consuming from the right aggregator's stream.
	reasmSp := tr.Begin(trace.PhaseIO, "reassemble")
	defer reasmSp.End()
	var total int64
	for _, r := range myRuns {
		total += r.Length
	}
	out := make([]byte, 0, total)
	pos := make([]int64, p) // byte cursor per aggregator rank
	for _, r := range myRuns {
		off := r.Offset
		for off < r.End() {
			d := domOf(off)
			ar := AggRank(d, a, p)
			_, dhi := domBounds(d)
			l := min64(r.End(), dhi) - off
			seg := got[ar]
			if pos[ar]+l > int64(len(seg)) {
				return nil, fmt.Errorf("mpiio: rank %d short reply from aggregator %d: have %d, need %d",
					c.Rank(), ar, len(seg), pos[ar]+l)
			}
			out = append(out, seg[pos[ar]:pos[ar]+l]...)
			pos[ar] += l
			off += l
		}
	}
	return out, nil
}

// IndependentRead reads the given sorted runs without collective
// buffering, applying data sieving: consecutive runs separated by holes
// of at most sieveHole bytes are fetched in one contiguous access (the
// hole bytes are read and discarded). sieveHole = 0 reads each run
// exactly. The concatenated run bytes are returned.
func IndependentRead(f vfile.File, runs []grid.Run, sieveHole int64) ([]byte, error) {
	var total int64
	for _, r := range runs {
		total += r.Length
	}
	out := make([]byte, 0, total)
	i := 0
	for i < len(runs) {
		j := i
		lo := runs[i].Offset
		hi := runs[i].End()
		for j+1 < len(runs) && runs[j+1].Offset-hi <= sieveHole {
			j++
			if e := runs[j].End(); e > hi {
				hi = e
			}
		}
		buf := make([]byte, hi-lo)
		if _, err := f.ReadAt(buf, lo); err != nil && err != io.EOF {
			return nil, fmt.Errorf("mpiio: independent read at %d: %w", lo, err)
		}
		for k := i; k <= j; k++ {
			out = append(out, buf[runs[k].Offset-lo:runs[k].End()-lo]...)
		}
		i = j + 1
	}
	return out, nil
}
