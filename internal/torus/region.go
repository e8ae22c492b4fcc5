package torus

import "bgpvr/internal/grid"

// Regions partitions the torus into cubic clusters of side Side along
// each axis (the trailing clusters are smaller when Side does not
// divide an extent) and derives the reduced "model link" space of the
// clustered contention approximation: a flow's hops inside its source
// or destination region keep their physical link identity — intra-
// region contention stays exact — while every hop through a transit
// region is charged against that region's aggregated directional
// capacity (all of the region's links in that direction pooled into
// one model link).
//
// The model link id space is laid out as the 6*NumRegions() regional
// aggregates first, then the 6*Nodes() physical links: MapLink returns
// ids straight into that space, and ModelCapacity gives each id's
// capacity (an aggregate pools one link's bandwidth per member node).
// With Side >= the largest torus extent there is a single region and
// every hop stays exact; the approximation degrades gracefully toward
// the exact kernel as Side shrinks.
type Regions struct {
	Top  Topology
	Side int
	// EndpointAgg additionally pools the *interior* hops of a flow's
	// endpoint regions onto the same directional aggregates transit
	// hops use, keeping only two hops per flow physical: the injection
	// hop out of the source node and the ejection hop into the
	// destination node. Those two are where direct-send contention
	// concentrates (the paper's many-to-one "hot spots"), so they stay
	// exact while the per-flow endpoint fan — which dominates the model
	// link count at 32K+ ranks — collapses. Set it via NewRegionsOpt;
	// ModelRoute honors it, MapLink always keeps endpoint regions
	// physical.
	EndpointAgg bool
	// RDims is the region-grid extent per axis (ceil(Dims/Side)).
	RDims grid.IVec3

	regOf []int32 // node id -> region id
	size  []int32 // region id -> member node count
}

// NewRegions builds the region decomposition for cluster side >= 1,
// with endpoint-region hops kept physical (EndpointAgg off).
func NewRegions(top Topology, side int) *Regions {
	return NewRegionsOpt(top, side, false)
}

// NewRegionsOpt is NewRegions with the endpoint-hop aggregation dial.
func NewRegionsOpt(top Topology, side int, endpointAgg bool) *Regions {
	if side < 1 {
		side = 1
	}
	ceil := func(n int) int { return (n + side - 1) / side }
	r := &Regions{
		Top:         top,
		Side:        side,
		EndpointAgg: endpointAgg,
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

// MapLink maps one physical hop of a flow between srcReg and dstReg
// into model link space. Hops sourced inside the flow's own endpoint
// regions keep their physical identity; transit hops collapse onto the
// owning region's directional aggregate.
func (r *Regions) MapLink(srcReg, dstReg, link int) int {
	node, dir := LinkOf(link)
	reg := int(r.regOf[node])
	if reg == srcReg || reg == dstReg {
		return 6*r.NumRegions() + link
	}
	return 6*reg + dir
}

// ModelRoute maps the dimension-ordered route from src to dst into
// model link space, merging consecutive hops through the same model
// link into one weighted entry (a flow crossing w links pooled into
// one aggregate claims w shares of it). Without EndpointAgg every hop
// inside the flow's endpoint regions keeps its physical identity
// (MapLink's rule); with it only the injection hop out of src and the
// ejection hop into dst stay physical and every other hop collapses
// onto the owning region's directional aggregate. Dimension-ordered
// routes sweep each region coordinate monotonically, so a route never
// revisits a model link after leaving it and the consecutive merge is
// exact. src == dst returns empty slices.
func (r *Regions) ModelRoute(src, dst int) (links, ws []int32) {
	srcReg, dstReg := int(r.regOf[src]), int(r.regOf[dst])
	base := 6 * r.NumRegions()
	r.Top.Route(src, dst, func(l int) {
		var ml int32
		node, dir := LinkOf(l)
		if r.EndpointAgg {
			if node == src || r.Top.Neighbor(node, dir) == dst {
				ml = int32(base + l)
			} else {
				ml = int32(6*int(r.regOf[node]) + dir)
			}
		} else {
			ml = int32(r.MapLink(srcReg, dstReg, l))
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
// (side 1 keeps every hop's physical identity).
func SideForEps(eps float64) int {
	switch {
	case eps >= 0.25:
		return 8
	case eps >= 0.08:
		return 4
	case eps >= 0.02:
		return 2
	default:
		return 1
	}
}
