package comm

import (
	"fmt"

	"bgpvr/internal/trace"
)

// Internal tags reserved by the collective implementations. User code
// should use tags below 1<<20. Families that add a per-step offset get
// a full 1<<20 range each.
const (
	tagBarrier  = 1 << 20
	tagBcast    = 2 << 20
	tagReduce   = 3 << 20
	tagAlltoall = 5 << 20
)

// Barrier blocks until every rank has entered it, using the
// dissemination algorithm (ceil(log2 p) rounds of pairwise signals).
func (c *Comm) Barrier() {
	sp := c.tr.Begin(trace.PhaseComm, "barrier")
	defer sp.End()
	c.w.net.ObserveCollective(0)
	p := c.Size()
	for k := 1; k < p; k <<= 1 {
		dst := (c.rank + k) % p
		src := (c.rank - k + p) % p
		c.Send(dst, tagBarrier, nil)
		c.Recv(src, tagBarrier)
	}
}

// Bcast distributes root's data to every rank along a binomial tree and
// returns the received slice (root returns data unchanged).
func (c *Comm) Bcast(root int, data []byte) []byte {
	sp := c.tr.Begin(trace.PhaseComm, "bcast")
	defer sp.End()
	p := c.Size()
	// Work in a rotated rank space where the root is 0. A node's parent
	// is found by clearing its lowest set bit; it forwards to children
	// vrank+mask for every mask below that bit.
	vrank := (c.rank - root + p) % p
	mask := 1
	if vrank == 0 {
		for mask < p {
			mask <<= 1
		}
	} else {
		for vrank&mask == 0 {
			mask <<= 1
		}
		_, data = c.Recv((vrank-mask+root)%p, tagBcast)
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < p {
			c.Send((vrank+mask+root)%p, tagBcast, data)
		}
	}
	c.w.net.ObserveCollective(int64(len(data)))
	return data
}

// ReduceOp combines src into dst element-wise; both have equal length.
type ReduceOp func(dst, src []float64)

// OpMin keeps the element-wise minimum in dst.
func OpMin(dst, src []float64) {
	for i := range dst {
		if src[i] < dst[i] {
			dst[i] = src[i]
		}
	}
}

// OpMax keeps the element-wise maximum in dst.
func OpMax(dst, src []float64) {
	for i := range dst {
		if src[i] > dst[i] {
			dst[i] = src[i]
		}
	}
}

// Reduce combines every rank's vals with op, leaving the result on root.
// It returns the combined slice on root and nil elsewhere. vals is not
// modified. A binomial tree gives ceil(log2 p) combine steps.
func (c *Comm) Reduce(root int, vals []float64, op ReduceOp) []float64 {
	sp := c.tr.Begin(trace.PhaseComm, "reduce")
	defer sp.End()
	c.w.net.ObserveCollective(8 * int64(len(vals)))
	p := c.Size()
	vrank := (c.rank - root + p) % p
	acc := append([]float64(nil), vals...)
	for k := 1; k < p; k <<= 1 {
		if vrank&k != 0 {
			// Send accumulator to the partner below and exit.
			c.Send(((vrank-k)+root)%p, tagReduce, F64sToBytes(acc))
			return nil
		}
		if vrank+k < p {
			_, b := c.Recv(((vrank+k)+root)%p, tagReduce)
			got := BytesToF64s(b)
			if len(got) != len(acc) {
				panic(fmt.Sprintf("comm: Reduce length mismatch %d vs %d", len(got), len(acc)))
			}
			op(acc, got)
		}
	}
	if vrank == 0 {
		return acc
	}
	return nil
}

// Allreduce combines every rank's vals with op and returns the result on
// all ranks (reduce to rank 0, then broadcast).
func (c *Comm) Allreduce(vals []float64, op ReduceOp) []float64 {
	sp := c.tr.Begin(trace.PhaseComm, "allreduce")
	defer sp.End()
	res := c.Reduce(0, vals, op)
	var b []byte
	if c.rank == 0 {
		b = F64sToBytes(res)
	}
	return BytesToF64s(c.Bcast(0, b))
}

// Alltoallv sends bufs[d] to rank d for every d and returns the buffers
// received, indexed by source rank (entry [rank] aliases bufs[rank]).
// The pairwise-exchange schedule avoids flooding any single receiver.
func (c *Comm) Alltoallv(bufs [][]byte) [][]byte {
	sp := c.tr.Begin(trace.PhaseComm, "alltoallv")
	defer sp.End()
	p := c.Size()
	if len(bufs) != p {
		panic(fmt.Sprintf("comm: Alltoallv needs %d buffers, got %d", p, len(bufs)))
	}
	var total int64
	for _, b := range bufs {
		total += int64(len(b))
	}
	c.w.net.ObserveCollective(total)
	out := make([][]byte, p)
	out[c.rank] = bufs[c.rank]
	for step := 1; step < p; step++ {
		dst := (c.rank + step) % p
		src := (c.rank - step + p) % p
		c.Send(dst, tagAlltoall+step, bufs[dst])
		_, b := c.Recv(src, tagAlltoall+step)
		out[src] = b
	}
	return out
}
