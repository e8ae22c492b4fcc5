package torus

import "bgpvr/internal/grid"

// Regions partitions the torus into cubic clusters of side Side along
// each axis (the trailing clusters are smaller when Side does not
// divide an extent) and derives the reduced "model link" space of the
// clustered contention approximation: each flow's injection hop out of
// its source node and ejection hop into its destination node keep their
// physical link identity — that is where direct-send contention
// concentrates (the paper's many-to-one "hot spots") — while every
// other hop is charged against the owning region's aggregated
// directional capacity (all of the region's links in that direction
// pooled into one model link).
//
// The model link id space is laid out as the 6*NumRegions() regional
// aggregates first, then the 6*Nodes() physical links: ModelRoute
// returns ids straight into that space, and ModelCapacity gives each
// id's capacity (an aggregate pools one link's bandwidth per member
// node).
type Regions struct {
	Top  Topology
	Side int
	// RDims is the region-grid extent per axis (ceil(Dims/Side)).
	RDims grid.IVec3

	regOf []int32 // node id -> region id
	size  []int32 // region id -> member node count
}

// NewRegions builds the region decomposition for cluster side >= 1.
func NewRegions(top Topology, side int) *Regions {
	if side < 1 {
		side = 1
	}
	ceil := func(n int) int { return (n + side - 1) / side }
	r := &Regions{
		Top:  top,
		Side: side,
		RDims: grid.IVec3{
			X: ceil(top.Dims.X), Y: ceil(top.Dims.Y), Z: ceil(top.Dims.Z),
		},
	}
	r.regOf = make([]int32, top.Nodes())
	r.size = make([]int32, r.RDims.X*r.RDims.Y*r.RDims.Z)
	for id := 0; id < top.Nodes(); id++ {
		c := top.Coord(id)
		reg := int32((c.Z/side*r.RDims.Y+c.Y/side)*r.RDims.X + c.X/side)
		r.regOf[id] = reg
		r.size[reg]++
	}
	return r
}

// NumRegions returns the number of clusters in the decomposition.
func (r *Regions) NumRegions() int { return len(r.size) }

// NumModelLinks returns the size of the model link id space: the
// regional aggregates followed by the physical links.
func (r *Regions) NumModelLinks() int { return 6*r.NumRegions() + r.Top.NumLinks() }

// ModelRoute maps the dimension-ordered route from src to dst into
// model link space, merging consecutive hops through the same model
// link into one weighted entry (a flow crossing w links pooled into
// one aggregate claims w shares of it). Only the injection hop out of
// src and the ejection hop into dst stay physical; every other hop
// collapses onto the owning region's directional aggregate.
// Dimension-ordered routes sweep each region coordinate monotonically,
// so a route never revisits a model link after leaving it and the
// consecutive merge is exact. src == dst returns empty slices.
func (r *Regions) ModelRoute(src, dst int) (links, ws []int32) {
	base := 6 * r.NumRegions()
	r.Top.Route(src, dst, func(l int) {
		node, dir := LinkOf(l)
		ml := int32(6*int(r.regOf[node]) + dir)
		if node == src || r.Top.Neighbor(node, dir) == dst {
			ml = int32(base + l)
		}
		if n := len(links); n > 0 && links[n-1] == ml {
			ws[n-1]++
			return
		}
		links = append(links, ml)
		ws = append(ws, 1)
	})
	return links, ws
}

// ModelCapacity returns each model link's capacity in bytes/s: one
// LinkBandwidth for a physical link, and the pooled bandwidth of the
// region's links in the aggregate's direction (one per member node)
// for an aggregate.
func (r *Regions) ModelCapacity(p Params) []float64 {
	caps := make([]float64, r.NumModelLinks())
	for reg, n := range r.size {
		for dir := 0; dir < 6; dir++ {
			caps[6*reg+dir] = float64(n) * p.LinkBandwidth
		}
	}
	for l := 6 * r.NumRegions(); l < len(caps); l++ {
		caps[l] = p.LinkBandwidth
	}
	return caps
}

// SideForEps maps a requested relative-error bound eps to a cluster
// side, calibrated against the exact kernel on the seeded reference
// configs in flowsim's approximation tests (TestApproxErrorWithinEps):
// tighter bounds force smaller clusters, and below the smallest
// calibrated band the approximation degrades to the exact kernel
// (side 1).
func SideForEps(eps float64) int {
	switch {
	case eps >= 0.25:
		return 8
	case eps >= 0.08:
		return 4
	default:
		return 1
	}
}
