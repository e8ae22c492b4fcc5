package torus

import (
	"math/rand"
	"testing"

	"bgpvr/internal/grid"
)

func TestCoordIDRoundTrip(t *testing.T) {
	top := Topology{Dims: grid.I(4, 3, 2)}
	if top.Nodes() != 24 {
		t.Fatalf("nodes = %d", top.Nodes())
	}
	for id := 0; id < top.Nodes(); id++ {
		if got := top.ID(top.Coord(id)); got != id {
			t.Fatalf("round trip %d -> %v -> %d", id, top.Coord(id), got)
		}
	}
}

func TestNewTopologyNearCubic(t *testing.T) {
	top := NewTopology(512)
	if top.Dims != grid.Cube(8) {
		t.Errorf("512-node torus dims = %v", top.Dims)
	}
	if top.Nodes() != 512 {
		t.Errorf("nodes = %d", top.Nodes())
	}
}

func TestHopsWraparound(t *testing.T) {
	top := Topology{Dims: grid.I(8, 1, 1)}
	// 0 -> 7 is 1 hop the short way around the ring.
	if h := top.Hops(0, 7); h != 1 {
		t.Errorf("wraparound hops = %d, want 1", h)
	}
	if h := top.Hops(0, 4); h != 4 {
		t.Errorf("antipodal hops = %d, want 4", h)
	}
	if h := top.Hops(3, 3); h != 0 {
		t.Errorf("self hops = %d", h)
	}
}

func TestHopsSymmetricAndTriangle(t *testing.T) {
	top := Topology{Dims: grid.I(5, 4, 3)}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		a, b, c := rng.Intn(top.Nodes()), rng.Intn(top.Nodes()), rng.Intn(top.Nodes())
		if top.Hops(a, b) != top.Hops(b, a) {
			t.Fatalf("hops not symmetric for %d,%d", a, b)
		}
		if top.Hops(a, c) > top.Hops(a, b)+top.Hops(b, c) {
			t.Fatalf("triangle inequality violated for %d,%d,%d", a, b, c)
		}
	}
}

func TestNeighborMatchesLinks(t *testing.T) {
	top := Topology{Dims: grid.I(5, 4, 3)}
	// Ring wrap in each direction, including n=3 where -1 mod n = 2.
	if got := top.Neighbor(top.ID(grid.I(4, 0, 0)), 0); got != top.ID(grid.I(0, 0, 0)) {
		t.Errorf("+X wrap: got %d", got)
	}
	if got := top.Neighbor(top.ID(grid.I(0, 0, 0)), 5); got != top.ID(grid.I(0, 0, 2)) {
		t.Errorf("-Z wrap: got %d", got)
	}
	// Every route's last link must land on the destination, and each
	// hop's link must be LinkIndex of the node Neighbor steps from.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		a, b := rng.Intn(top.Nodes()), rng.Intn(top.Nodes())
		at := a
		top.Route(a, b, func(l int) {
			node, dir := LinkOf(l)
			if node != at {
				t.Fatalf("route %d->%d: hop from %d, expected %d", a, b, node, at)
			}
			at = top.Neighbor(node, dir)
		})
		if at != b {
			t.Fatalf("route %d->%d: Neighbor chain ends at %d", a, b, at)
		}
	}
	// Neighbor is its own inverse through the opposite direction.
	for id := 0; id < top.Nodes(); id++ {
		for dir := 0; dir < 6; dir++ {
			if back := top.Neighbor(top.Neighbor(id, dir), dir^1); back != id {
				t.Fatalf("node %d dir %d: inverse walk lands on %d", id, dir, back)
			}
		}
	}
}

func TestRouteLengthMatchesHops(t *testing.T) {
	top := Topology{Dims: grid.I(4, 4, 4)}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		a, b := rng.Intn(64), rng.Intn(64)
		links := 0
		top.Route(a, b, func(int) { links++ })
		if links != top.Hops(a, b) {
			t.Fatalf("route %d->%d visits %d links, hops = %d", a, b, links, top.Hops(a, b))
		}
	}
}

func TestRouteLinksAreDistinct(t *testing.T) {
	top := Topology{Dims: grid.I(6, 6, 6)}
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 200; i++ {
		a, b := rng.Intn(216), rng.Intn(216)
		seen := map[int]bool{}
		top.Route(a, b, func(l int) {
			if seen[l] {
				t.Fatalf("route %d->%d repeats link %d", a, b, l)
			}
			seen[l] = true
		})
	}
}

func TestPhaseConservesBytes(t *testing.T) {
	top := NewTopology(64)
	p := NewBGP()
	msgs := []Message{{0, 5, 1000}, {5, 0, 2000}, {7, 7, 500}, {10, 63, 1 << 20}}
	st := Phase(top, p, msgs, true)
	if st.TotalBytes != 1000+2000+500+1<<20 {
		t.Errorf("total bytes = %d", st.TotalBytes)
	}
	if st.Messages != 4 {
		t.Errorf("messages = %d", st.Messages)
	}
	if st.Time <= 0 {
		t.Error("phase time must be positive")
	}
}

func TestPhaseSingleMessageNearPeak(t *testing.T) {
	top := NewTopology(64)
	p := NewBGP()
	// One large message: effective bandwidth should approach the link
	// bandwidth (within 20%, accounting for overheads).
	st := Phase(top, p, []Message{{0, 1, 64 << 20}}, true)
	bw := st.Bandwidth()
	if bw < 0.8*p.LinkBandwidth || bw > p.LinkBandwidth {
		t.Errorf("single large message bandwidth = %.0f, link = %.0f", bw, p.LinkBandwidth)
	}
}

func TestPhaseSmallMessagesOverheadDominated(t *testing.T) {
	top := NewTopology(512)
	p := NewBGP()
	// Many-to-one with tiny messages: per-message receive overhead should
	// dominate, and effective bandwidth should be far below peak.
	var msgs []Message
	for src := 1; src < 512; src++ {
		msgs = append(msgs, Message{src, 0, 312})
	}
	st := Phase(top, p, msgs, true)
	if st.EjectTerm < st.LinkTerm {
		t.Errorf("expected eject term to dominate: eject %.3g link %.3g", st.EjectTerm, st.LinkTerm)
	}
	// The per-receiver rate is capped by msgSize/RecvOverhead, far below
	// the link bandwidth (the Fig 4 collapse).
	capRate := 312.0 / p.RecvOverhead
	if st.Bandwidth() > 1.05*capRate {
		t.Errorf("small-message bandwidth %.0f exceeds overhead cap %.0f", st.Bandwidth(), capRate)
	}
	if st.Bandwidth() > 0.4*p.LinkBandwidth {
		t.Errorf("small-message bandwidth %.0f should be well below link %.0f", st.Bandwidth(), p.LinkBandwidth)
	}
}

// The Fig 4 mechanism: for a fixed total payload, splitting it into more
// and smaller messages never increases effective bandwidth, and
// eventually collapses it.
func TestBandwidthFallsWithMessageCount(t *testing.T) {
	top := NewTopology(4096)
	p := NewBGP()
	total := int64(10 << 20) // 10 MB per receiver region
	prev := 1e18
	for _, m := range []int{16, 64, 256, 1024, 4096} {
		// m receivers each get total/m bytes from 16 senders.
		var msgs []Message
		per := total / int64(m) / 16
		for dst := 0; dst < m; dst++ {
			for s := 0; s < 16; s++ {
				src := (dst + 1 + s*7) % 4096
				msgs = append(msgs, Message{src, dst, per})
			}
		}
		st := Phase(top, p, msgs, true)
		bw := st.Bandwidth() / float64(m) // per-receiver bandwidth
		if bw > prev*1.05 {
			t.Fatalf("per-receiver bandwidth rose from %.0f to %.0f at m=%d", prev, bw, m)
		}
		prev = bw
	}
}

func TestContentionFlagLowersTime(t *testing.T) {
	top := Topology{Dims: grid.I(16, 1, 1)}
	p := NewBGP()
	// All nodes send through the same ring segment: contention matters.
	var msgs []Message
	for s := 1; s < 8; s++ {
		msgs = append(msgs, Message{s, 0, 8 << 20})
	}
	with := Phase(top, p, msgs, true)
	without := Phase(top, p, msgs, false)
	if with.Time < without.Time {
		t.Errorf("contention cannot make a phase faster: %v vs %v", with.Time, without.Time)
	}
	if with.MaxLinkBytes <= without.MaxLinkBytes {
		t.Errorf("contention accounting missing: %d vs %d", with.MaxLinkBytes, without.MaxLinkBytes)
	}
}

func TestSelfMessageNoHops(t *testing.T) {
	top := NewTopology(8)
	p := NewBGP()
	st := Phase(top, p, []Message{{3, 3, 1 << 20}}, true)
	if st.MaxHops != 0 || st.MaxLinkBytes != 0 {
		t.Errorf("self message should not touch the network: %+v", st)
	}
	if st.Time <= 0 {
		t.Error("self message still pays overheads")
	}
}

func TestPhasePanicsOnBadEndpoint(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Phase(NewTopology(8), NewBGP(), []Message{{0, 99, 10}}, true)
}

func TestPointToPointAndPeak(t *testing.T) {
	top := NewTopology(64)
	p := NewBGP()
	t1 := Phase(top, p, []Message{{0, 1, 1 << 20}}, true).Time
	t2 := Phase(top, p, []Message{{0, 63, 1 << 20}}, true).Time
	if t2 <= t1 {
		t.Errorf("longer route should cost more latency: %v vs %v", t1, t2)
	}
	peak := PeakPhaseTime(p, 1<<20)
	if t1 < peak {
		t.Errorf("modeled time %v beats peak %v", t1, peak)
	}
}

func TestBGPConstants(t *testing.T) {
	p := NewBGP()
	if p.LinkBandwidth != 3.4e9/8 {
		t.Errorf("link bandwidth = %v", p.LinkBandwidth)
	}
	if p.InjectionBW != 6*p.LinkBandwidth {
		t.Errorf("injection bw = %v", p.InjectionBW)
	}
}
