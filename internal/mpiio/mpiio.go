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
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"bgpvr/internal/comm"
	"bgpvr/internal/critpath"
	"bgpvr/internal/grid"
	"bgpvr/internal/iotrace"
	"bgpvr/internal/obs"
	"bgpvr/internal/scratch"
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
	// Zero means DefaultCBBufferSize here; a core frame resolves zero
	// with ChooseWindow instead.
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
	walkPlan(union, h.window(), h.CBNodes, p)
	return p
}

// walkPlan is the two-phase schedule of a collective read of union: the
// span from its first to its last byte is cut into a file domains of
// equal length, each domain into windows of w bytes from its start, and
// every window holding a requested byte is one access, clamped to the
// first and last requested byte of its domain. It returns how many
// accesses there are and how many bytes they read. With keep non-nil it
// also records the span, domains and accesses there (BuildPlan);
// without, it allocates nothing (ChooseWindow's scorer).
func walkPlan(union []grid.Run, w int64, a int, keep *Plan) (accesses int, physical int64) {
	if len(union) == 0 {
		return 0, 0
	}
	st := union[0].Offset
	end := union[len(union)-1].End()
	a = max(a, 1)
	domLen := max((end-st+int64(a)-1)/int64(a), 1)
	if keep != nil {
		keep.Span = grid.Run{Offset: st, Length: end - st}
	}
	ri := 0 // index into union
	for d := 0; d < a; d++ {
		dlo := st + int64(d)*domLen
		dhi := min(dlo+domLen, end)
		if dlo >= dhi {
			break
		}
		if keep != nil {
			keep.Domains = append(keep.Domains, grid.Run{Offset: dlo, Length: dhi - dlo})
		}
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
			lo := max(union[k].Offset, dlo)
			hi := min(union[k].End(), dhi)
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
			whi := min(wlo+w, dhi)
			// Does any run intersect [wlo, whi)?
			for j < len(union) && union[j].End() <= wlo {
				j++
			}
			if j >= len(union) || union[j].Offset >= whi {
				continue // empty window: skipped
			}
			rlo := max(wlo, firstNeeded)
			rhi := min(whi, lastNeeded)
			if rlo >= rhi {
				continue
			}
			if keep != nil {
				keep.Accesses = append(keep.Accesses, grid.Run{Offset: rlo, Length: rhi - rlo})
			}
			nAcc++
			physical += rhi - rlo
		}
		accesses += nAcc
		if keep != nil {
			keep.PerAggAccesses = append(keep.PerAggAccesses, nAcc)
		}
	}
	return accesses, physical
}

// minMeanAccess is the smallest mean access a planned window below the
// default may have. An access pays a fixed cost whatever its length (a
// system call in real mode, a 3 ms request and seek in the BG/P storage
// model), and a union's run lengths can be far below any sensible
// access: the 4 KB records of a 32^3 netCDF record file, planned as 4 KB
// windows, would turn a read of a few 16 MB accesses into hundreds of
// small ones. The scorer counts bytes, not time, so the floor is what
// keeps it from trading bandwidth for fewer bytes. DESIGN.md ("The read
// plan chooses its own window") has the numbers behind 64 KB.
const minMeanAccess = 64 << 10

// ChooseWindow returns the collective buffer size for a collective read
// of union by the given number of aggregators whose plan reads the
// fewest physical bytes, fewer accesses breaking a tie and the earlier
// candidate a full one. The candidates are DefaultCBBufferSize and then
// the union's distinct run lengths below it, in union order — for a
// netCDF record variable that is the record, the paper's hand tuning. A
// candidate below the default counts only if its plan's mean access is
// at least minMeanAccess. A union of one run (a contiguous variable)
// keeps the default without a walk. union must be sorted and
// non-overlapping, as for BuildPlan. ChooseWindow allocates nothing.
func ChooseWindow(union []grid.Run, aggregators int) int64 {
	best := int64(DefaultCBBufferSize)
	if len(union) < 2 {
		return best
	}
	bestAcc, bestBytes := walkPlan(union, best, aggregators, nil)
	for i, r := range union {
		w := r.Length
		// An access is at most a window long, so a window under the floor
		// cannot have a mean above it.
		if w < minMeanAccess || w >= DefaultCBBufferSize ||
			slices.ContainsFunc(union[:i], func(q grid.Run) bool { return q.Length == w }) {
			continue
		}
		acc, bytes := walkPlan(union, w, aggregators, nil)
		if bytes < minMeanAccess*int64(acc) {
			continue
		}
		if bytes < bestBytes || bytes == bestBytes && acc < bestAcc {
			best, bestAcc, bestBytes = w, acc, bytes
		}
	}
	return best
}

// buffers recycles the two large byte buffers of a collective read.
// The aggregators' collective buffers outlive the call, as ROMIO's does
// the MPI_File_read_all: a frame's aggregators would otherwise each
// allocate and zero a domain-sized buffer per read. Reuse is safe
// because every byte scattered out of one was put there by the
// vfile.ReadFull just before — a short read is an error, so stale bytes
// are never delivered. The reply messages are taken by the aggregator
// that fills them and released by the requester that receives them,
// once CollectiveReadTo has written them out. A rank's request buffer
// is its own, taken before the request exchange and released after
// the reply exchange.
var buffers = scratch.Pool[byte]{Poison: 0xFF}

// fragBytes is the size of one fragment in a request message: offset
// and length as little-endian int64s.
const fragBytes = 16

// fragAt decodes fragment i of a request message.
func fragAt(req []byte, i int) grid.Run {
	b := req[fragBytes*i:][:fragBytes]
	return grid.Run{
		Offset: int64(binary.LittleEndian.Uint64(b)),
		Length: int64(binary.LittleEndian.Uint64(b[8:])),
	}
}

// CollectiveRead performs a two-phase collective read over the comm
// runtime: every rank passes its own sorted, non-overlapping byte runs
// and receives the concatenated bytes of those runs. All ranks must call
// it together. The physical reads (and only those) hit f, so passing a
// vfile.Traced yields the Fig 9/10 access logs.
func CollectiveRead(c *comm.Comm, f vfile.File, myRuns []grid.Run, h Hints) ([]byte, error) {
	var out bytes.Buffer
	out.Grow(int(grid.TotalBytes(myRuns)))
	if err := CollectiveReadTo(c, f, myRuns, h, &out); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// CollectiveReadTo is CollectiveRead delivering the bytes of the runs,
// in order, to w instead of returning them: the segments are written
// straight out of the aggregators' reply messages, so a caller that
// decodes (volume.FloatDecoder) never holds the concatenation. w may be
// written to in pieces of any size and must not keep them, and the call
// keeps no reference to myRuns once it returns.
func CollectiveReadTo(c *comm.Comm, f vfile.File, myRuns []grid.Run, h Hints, w io.Writer) error {
	tr := c.Trace()
	sp := tr.Begin(trace.PhaseIO, "collective-read")
	defer sp.End()
	p := c.Size()
	a := h.aggregators(p)
	win := h.window()

	// Global span via one allreduce: the largest end is the smallest
	// negated end, so both bounds reduce under OpMin.
	span := [2]float64{math.Inf(1), math.Inf(1)}
	if len(myRuns) > 0 {
		span = [2]float64{float64(myRuns[0].Offset), -float64(myRuns[len(myRuns)-1].End())}
	}
	g := c.Allreduce(span[:], comm.OpMin)
	if math.IsInf(g[0], 1) {
		return nil // nobody wants anything
	}
	st, end := int64(g[0]), -int64(g[1])
	domLen := (end - st + int64(a) - 1) / int64(a)
	if domLen < 1 {
		domLen = 1
	}
	// eachFragment splits my runs at the file-domain boundaries and
	// calls fn with each piece and its domain, in offset order — so the
	// pieces of one domain are consecutive.
	eachFragment := func(fn func(d int, fr grid.Run) error) error {
		for _, r := range myRuns {
			for off := r.Offset; off < r.End(); {
				d := min(int((off-st)/domLen), a-1)
				dhi := min(st+int64(d+1)*domLen, end)
				fr := grid.Run{Offset: off, Length: min(r.End(), dhi) - off}
				if err := fn(d, fr); err != nil {
					return err
				}
				off += fr.Length
			}
		}
		return nil
	}

	// Request exchange: fragments as int64 pairs, written once into one
	// buffer that is cut into the per-aggregator messages. A run splits
	// only at a domain boundary, which bounds the fragment count, so
	// the appends stay inside the buffer taken from the pool.
	reqSp := tr.Begin(trace.PhaseIO, "request-exchange")
	reqBufs := make([][]byte, p)
	enc := buffers.Get(fragBytes * (len(myRuns) + a - 1))[:0]
	cur, from := -1, 0 // domain of the fragments since enc[from]
	cut := func() {
		if cur >= 0 {
			reqBufs[AggRank(cur, a, p)] = enc[from:len(enc):len(enc)]
		}
	}
	eachFragment(func(d int, fr grid.Run) error {
		if d != cur {
			cut()
			cur, from = d, len(enc)
		}
		enc = binary.LittleEndian.AppendUint64(enc, uint64(fr.Offset))
		enc = binary.LittleEndian.AppendUint64(enc, uint64(fr.Length))
		return nil
	})
	cut()
	c.SetDepKind(critpath.DepAggregator)
	reqs := c.Alltoallv(reqBufs)
	c.SetDepKind(critpath.DepAuto)
	reqSp.End()

	// Aggregator work: read windows, build replies.
	aggSp := tr.Begin(trace.PhaseIO, "aggregator-read")
	replies := make([][]byte, p)
	for d := 0; d < a; d++ {
		if AggRank(d, a, p) == c.Rank() {
			dlo := st + int64(d)*domLen
			if err := aggregate(c, f, reqs, replies, dlo, min(dlo+domLen, end), win); err != nil {
				return err
			}
			break
		}
	}
	aggSp.End()
	scatSp := tr.Begin(trace.PhaseIO, "scatter")
	c.SetDepKind(critpath.DepAggregator)
	got := c.Alltoallv(replies)
	c.SetDepKind(critpath.DepAuto)
	scatSp.End()
	// The request messages alias enc, and the aggregators are through
	// with them: each one sends its reply only after aggregate has read
	// every request, and the exchange has just received every reply.
	// On an error return the world is aborting and enc is left to the
	// collector, since an aggregator may still be reading it.
	buffers.Put(enc)

	// Reassemble: fragments per aggregator arrive in offset order; walk
	// my runs, consuming from the right aggregator's stream.
	reasmSp := tr.Begin(trace.PhaseIO, "reassemble")
	defer reasmSp.End()
	// The fragments arrive domain by domain (eachFragment), so one
	// reply is open at a time: rest is what is left of it, and it is
	// released when the walk moves on.
	open, rest := -1, []byte(nil)
	release := func() {
		if open >= 0 {
			buffers.Put(got[AggRank(open, a, p)])
		}
	}
	defer release()
	return eachFragment(func(d int, fr grid.Run) error {
		if d != open {
			release()
			open, rest = d, got[AggRank(d, a, p)]
		}
		if fr.Length > int64(len(rest)) {
			return fmt.Errorf("mpiio: rank %d short reply from aggregator %d: have %d bytes, need %d more",
				c.Rank(), AggRank(d, a, p), len(rest), fr.Length)
		}
		_, err := w.Write(rest[:fr.Length])
		rest = rest[fr.Length:]
		return err
	})
}

// aggregate is one aggregator's part of a collective read: it walks its
// file domain [dlo, dhi) in windows of win bytes, reads every window
// that holds a requested byte, and copies the fragments requested in
// reqs (indexed by source rank) into replies.
func aggregate(c *comm.Comm, f vfile.File, reqs, replies [][]byte, dlo, dhi, win int64) error {
	tr := c.Trace()
	// One pass over the requests sizes each reply and finds the first
	// and last needed byte of the domain, which clamp the window reads.
	firstNeeded, lastNeeded := dhi, dlo
	for src, req := range reqs {
		var total int64
		for i := 0; i < len(req)/fragBytes; i++ {
			fr := fragAt(req, i)
			total += fr.Length
			firstNeeded = min(firstNeeded, fr.Offset)
			lastNeeded = max(lastNeeded, fr.End())
		}
		if total > 0 {
			replies[src] = buffers.Get(int(total))[:0]
		}
	}
	if firstNeeded >= lastNeeded {
		return nil
	}
	// A window never reads more than the domain holds, so a small file
	// does not cost a default 16 MB window per aggregator.
	buf := buffers.Get(int(min(win, dhi-dlo)))
	defer buffers.Put(buf)
	// cursor[src] is the first fragment of src that ends past the
	// windows walked so far (fragments are offset-sorted per source).
	cursor := make([]int, len(reqs))
	stagePhase.Start((dhi - dlo + win - 1) / win)
	defer stagePhase.End()
	for wlo := dlo; wlo < dhi; wlo += win {
		stagePhase.Add(1)
		whi := min(wlo+win, dhi)
		// The window is empty unless some source's next fragment starts
		// inside it (it cannot end before wlo).
		empty := true
		for src, req := range reqs {
			if cursor[src] < len(req)/fragBytes && fragAt(req, cursor[src]).Offset < whi {
				empty = false
				break
			}
		}
		if empty {
			continue
		}
		rlo := max(wlo, firstNeeded)
		rhi := min(whi, lastNeeded)
		b := buf[:rhi-rlo]
		if err := vfile.ReadFull(f, b, rlo); err != nil {
			return fmt.Errorf("mpiio: aggregator: %w", err)
		}
		tr.Add(trace.CounterAccesses, 1)
		tr.Add(trace.CounterBytesRead, rhi-rlo)
		cStageAccesses.Inc()
		cStageBytes.Add(rhi - rlo)
		c.Net().ObserveAccess(rhi - rlo)
		// Scatter the window's fragments to each source's reply.
		for src, req := range reqs {
			for cursor[src] < len(req)/fragBytes {
				fr := fragAt(req, cursor[src])
				if fr.Offset >= whi {
					break
				}
				if flo, fhi := max(fr.Offset, wlo), min(fr.End(), whi); flo < fhi {
					replies[src] = append(replies[src], b[flo-rlo:fhi-rlo]...)
				}
				if fr.End() > whi {
					break // rest of the fragment is in a later window
				}
				cursor[src]++
			}
		}
	}
	return nil
}

// IndependentRead reads the given sorted runs without collective
// buffering, applying data sieving: consecutive runs separated by holes
// of at most sieveHole bytes are fetched in one contiguous access (the
// hole bytes are read and discarded). sieveHole = 0 reads each run
// exactly. The concatenated run bytes are returned.
func IndependentRead(f vfile.File, runs []grid.Run, sieveHole int64) ([]byte, error) {
	var out bytes.Buffer
	out.Grow(int(grid.TotalBytes(runs)))
	if err := vfile.ReadRuns(f, runs, sieveHole, &out); err != nil {
		return nil, fmt.Errorf("mpiio: independent read: %w", err)
	}
	return out.Bytes(), nil
}
