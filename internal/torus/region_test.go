package torus

import (
	"math/rand"
	"slices"
	"testing"

	"bgpvr/internal/grid"
)

// TestRegionsPartition checks that the decomposition is a partition:
// every node lands in exactly one region and the member counts sum to
// the node count, including ragged extents.
func TestRegionsPartition(t *testing.T) {
	for _, tc := range []struct {
		nodes, side int
	}{
		{64, 2}, {64, 4}, {512, 4}, {300, 4}, {512, 16}, {128, 1},
	} {
		top := NewTopology(tc.nodes)
		r := NewRegions(top, tc.side)
		total := 0
		for reg := 0; reg < r.NumRegions(); reg++ {
			total += int(r.size[reg])
		}
		if total != top.Nodes() {
			t.Errorf("nodes=%d side=%d: region sizes sum to %d, want %d",
				tc.nodes, tc.side, total, top.Nodes())
		}
		for id := 0; id < top.Nodes(); id++ {
			if reg := int(r.regOf[id]); reg < 0 || reg >= r.NumRegions() {
				t.Fatalf("nodes=%d side=%d: node %d region %d out of range",
					tc.nodes, tc.side, id, reg)
			}
		}
		// Nodes in the same region are within Side-1 of each other on
		// every axis (regions are axis-aligned blocks).
		for id := 0; id < top.Nodes(); id++ {
			c := top.Coord(id)
			want := (c.Z/tc.side*r.RDims.Y+c.Y/tc.side)*r.RDims.X + c.X/tc.side
			if int(r.regOf[id]) != want {
				t.Fatalf("nodes=%d side=%d: node %d region %d, want block %d",
					tc.nodes, tc.side, id, int(r.regOf[id]), want)
			}
		}
	}
}

// TestRegionsCapacityConserved checks the pooling invariant: summing
// every aggregate's capacity recovers exactly the torus's total
// physical link bandwidth (one link per node per direction).
func TestRegionsCapacityConserved(t *testing.T) {
	p := NewBGP()
	for _, side := range []int{1, 2, 4} {
		top := NewTopology(512)
		r := NewRegions(top, side)
		caps := r.ModelCapacity(p)
		var agg float64
		for l := 0; l < 6*r.NumRegions(); l++ {
			agg += caps[l]
		}
		want := float64(top.NumLinks()) * p.LinkBandwidth
		if agg != want {
			t.Errorf("side %d: aggregate capacity %g, want %g", side, agg, want)
		}
		for l := 6 * r.NumRegions(); l < len(caps); l++ {
			if caps[l] != p.LinkBandwidth {
				t.Fatalf("side %d: physical model link %d capacity %g", side, l, caps[l])
			}
		}
	}
}

// TestRegionsDegenerateSingleRegion pins the side >= extent corner:
// the decomposition collapses to one region holding every node.
func TestRegionsDegenerateSingleRegion(t *testing.T) {
	top := NewTopology(64) // 4x4x4
	for _, side := range []int{4, 5, 16} {
		r := NewRegions(top, side)
		if r.NumRegions() != 1 {
			t.Fatalf("side %d: %d regions, want 1", side, r.NumRegions())
		}
		if int(r.size[0]) != top.Nodes() {
			t.Fatalf("side %d: region holds %d nodes, want %d", side, r.size[0], top.Nodes())
		}
		for id := 0; id < top.Nodes(); id++ {
			if int(r.regOf[id]) != 0 {
				t.Fatalf("side %d: node %d region %d, want 0", side, id, int(r.regOf[id]))
			}
		}
	}
}

// TestRegionsRaggedExtent checks a side that does not divide the torus
// extents: trailing regions are smaller but still axis-aligned blocks,
// the partition is exact, and pooled aggregate capacity still sums to
// the physical total (smaller regions pool fewer links).
func TestRegionsRaggedExtent(t *testing.T) {
	p := NewBGP()
	top := Topology{Dims: grid.I(5, 7, 3)}
	r := NewRegions(top, 2)
	if r.RDims != grid.I(3, 4, 2) {
		t.Fatalf("RDims %+v, want ceil(5,7,3 / 2)", r.RDims)
	}
	total := 0
	minSize, maxSize := top.Nodes(), 0
	for reg := 0; reg < r.NumRegions(); reg++ {
		n := int(r.size[reg])
		total += n
		if n < minSize {
			minSize = n
		}
		if n > maxSize {
			maxSize = n
		}
	}
	if total != top.Nodes() {
		t.Errorf("region sizes sum to %d, want %d", total, top.Nodes())
	}
	if minSize < 1 || maxSize > 8 {
		t.Errorf("region sizes span [%d,%d], want within [1,8]", minSize, maxSize)
	}
	caps := r.ModelCapacity(p)
	var agg float64
	for l := 0; l < 6*r.NumRegions(); l++ {
		agg += caps[l]
	}
	if want := float64(top.NumLinks()) * p.LinkBandwidth; agg != want {
		t.Errorf("aggregate capacity %g, want %g", agg, want)
	}
}

// TestRegionOfRoundTrip is the property test tying a node's region to the
// coordinate arithmetic: for random nodes across assorted topologies
// and sides, the region id decodes back to the node's block coordinates
// (Coord(id)/side per axis) and stays within the region grid.
func TestRegionOfRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tops := []Topology{
		NewTopology(64), NewTopology(512), NewTopology(300),
		{Dims: grid.I(5, 7, 3)}, {Dims: grid.I(8, 1, 1)},
	}
	for _, top := range tops {
		for _, side := range []int{1, 2, 3, 4, 8} {
			r := NewRegions(top, side)
			for trial := 0; trial < 200; trial++ {
				id := rng.Intn(top.Nodes())
				reg := int(r.regOf[id])
				rx := reg % r.RDims.X
				ry := (reg / r.RDims.X) % r.RDims.Y
				rz := reg / (r.RDims.X * r.RDims.Y)
				c := top.Coord(id)
				if rx != c.X/side || ry != c.Y/side || rz != c.Z/side {
					t.Fatalf("dims %+v side %d: node %d region %d decodes to (%d,%d,%d), want (%d,%d,%d)",
						top.Dims, side, id, reg, rx, ry, rz, c.X/side, c.Y/side, c.Z/side)
				}
				if rz >= r.RDims.Z {
					t.Fatalf("dims %+v side %d: region %d outside grid %+v", top.Dims, side, reg, r.RDims)
				}
			}
		}
	}
}

// mapLink is the hop-by-hop reference for ModelRoute: the injection hop
// (sourced at src) and the ejection hop (landing on dst) keep their
// physical identity, every other hop maps onto its region's directional
// aggregate.
func mapLink(top Topology, r *Regions, src, dst, l int) int32 {
	node, dir := LinkOf(l)
	if node == src || top.Neighbor(node, dir) == dst {
		return int32(6*r.NumRegions() + l)
	}
	return int32(6*int(r.regOf[node]) + dir)
}

// TestModelRouteMatchesMapLink checks that ModelRoute is exactly the
// mapLink mapping of the route with consecutive duplicates merged:
// expanding each entry by its weight reproduces the hop-by-hop
// sequence, so the weighted form is pure compression.
func TestModelRouteMatchesMapLink(t *testing.T) {
	top := NewTopology(512)
	r := NewRegions(top, 2)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		src, dst := rng.Intn(top.Nodes()), rng.Intn(top.Nodes())
		var want []int32
		top.Route(src, dst, func(l int) {
			want = append(want, mapLink(top, r, src, dst, l))
		})
		links, ws := r.ModelRoute(src, dst)
		var got []int32
		for i, ml := range links {
			if ws[i] < 1 {
				t.Fatalf("src %d dst %d: nonpositive weight %d", src, dst, ws[i])
			}
			if i > 0 && ml == links[i-1] {
				t.Fatalf("src %d dst %d: consecutive duplicate model link %d not merged", src, dst, ml)
			}
			for k := int32(0); k < ws[i]; k++ {
				got = append(got, ml)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("src %d dst %d: expanded route %v, want %v", src, dst, got, want)
		}
	}
}

// TestModelRouteEndpointAgg checks the endpoint rule on ModelRoute's
// own output: exactly the injection and ejection hops stay physical,
// each at weight 1, and the weights sum to the route's hop count.
func TestModelRouteEndpointAgg(t *testing.T) {
	top := NewTopology(512)
	r := NewRegions(top, 2)
	base := int32(6 * r.NumRegions())
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		src, dst := rng.Intn(top.Nodes()), rng.Intn(top.Nodes())
		links, ws := r.ModelRoute(src, dst)
		var hops int32
		physical := 0
		for i, ml := range links {
			hops += ws[i]
			if ml >= base {
				physical++
				node, dir := LinkOf(int(ml - base))
				if node != src && top.Neighbor(node, dir) != dst {
					t.Fatalf("src %d dst %d: interior hop %d kept physical", src, dst, ml-base)
				}
				if ws[i] != 1 {
					t.Fatalf("src %d dst %d: physical hop weight %d, want 1", src, dst, ws[i])
				}
			}
		}
		if hops != int32(top.Hops(src, dst)) {
			t.Fatalf("src %d dst %d: weights sum to %d, want %d hops", src, dst, hops, top.Hops(src, dst))
		}
		if want := min(top.Hops(src, dst), 2); physical != want {
			t.Fatalf("src %d dst %d: %d physical hops, want %d", src, dst, physical, want)
		}
	}
}

// TestSideForEps pins the eps -> cluster-side bands, including the
// degrade-to-exact floor below 0.08.
func TestSideForEps(t *testing.T) {
	for _, tc := range []struct {
		eps  float64
		side int
	}{
		{0.30, 8}, {0.25, 8}, {0.10, 4}, {0.08, 4}, {0.05, 1}, {0.01, 1}, {0, 1},
	} {
		if got := SideForEps(tc.eps); got != tc.side {
			t.Errorf("SideForEps(%g) = %d, want %d", tc.eps, got, tc.side)
		}
	}
}
