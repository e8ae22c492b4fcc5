// Package tree models the Blue Gene/P collective ("tree") network: a
// dedicated tree spanning all compute nodes (and bridging to the I/O
// nodes) with 6.8 Gb/s links and about 5 µs worst-case latency. The
// paper's algorithm uses it for barriers and small reductions between
// stages, and I/O traffic to the IONs traverses it.
//
// Costs follow the standard pipelined-tree model: a payload streams
// through the tree at link bandwidth while each level adds one hop of
// latency, so a barrier (no payload) costs one hop per level up and
// one per level down.
package tree

import "math"

// Params are the tree network constants.
type Params struct {
	LinkBandwidth float64 // bytes/s per link
	HopLatency    float64 // seconds per tree level
}

// NewBGP returns the published Blue Gene/P tree parameters: 6.8 Gb/s
// per link and 5 µs maximum latency across the full-system tree
// (~24 levels at 40 racks), giving ~0.2 µs per level.
func NewBGP() Params {
	return Params{
		LinkBandwidth: 6.8e9 / 8,
		HopLatency:    0.2e-6,
	}
}

// Depth returns the depth of a binary tree over n nodes (0 for n <= 1).
func Depth(n int) int {
	if n <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

// BarrierTime models a barrier over n nodes: a zero-payload reduce
// followed by a zero-payload broadcast.
func BarrierTime(p Params, n int) float64 {
	return 2 * float64(Depth(n)) * p.HopLatency
}

// Op identifies a tree-network operation for telemetry.
type Op uint8

// The tree operations.
const (
	OpBarrier Op = iota
	OpBcast
	OpReduce
	OpAllreduce
	OpGather
	NumOps // count sentinel, not an op
)

func (o Op) String() string {
	switch o {
	case OpBarrier:
		return "barrier"
	case OpBcast:
		return "bcast"
	case OpReduce:
		return "reduce"
	case OpAllreduce:
		return "allreduce"
	case OpGather:
		return "gather"
	}
	return "unknown"
}

// Usage counts the collective operations and payload a run puts on the
// tree network. The torus gets per-link maps (the tree is a single
// shared medium, so op counts and bytes are the whole story). Observe
// is a no-op on the nil receiver, so callers thread a possibly-nil
// *Usage for free when telemetry is off.
type Usage struct {
	Ops   [NumOps]int64
	Bytes int64
}

// Observe records one operation moving b payload bytes.
func (u *Usage) Observe(op Op, b int64) {
	if u == nil || op >= NumOps {
		return
	}
	u.Ops[op]++
	u.Bytes += b
}

// TotalOps returns the number of operations recorded.
func (u *Usage) TotalOps() int64 {
	if u == nil {
		return 0
	}
	var t int64
	for _, n := range u.Ops {
		t += n
	}
	return t
}
