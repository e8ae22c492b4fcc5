package machine

import (
	"testing"

	"bgpvr/internal/compose"
)

func TestBGPPublishedNumbers(t *testing.T) {
	m := NewBGP()
	if cores := m.CoresPerNode * m.NodesPerRack * m.Racks; cores != 163840 {
		t.Errorf("total cores = %d, want 163840 (40 racks)", cores)
	}
	if m.CoreHz != 850e6 {
		t.Errorf("core clock = %v", m.CoreHz)
	}
}

func TestNodesAndIONs(t *testing.T) {
	m := NewBGP()
	cases := []struct{ p, nodes, ions int }{
		{1, 1, 1},
		{4, 1, 1},
		{64, 16, 1},
		{256, 64, 1},
		{1024, 256, 4},
		{16384, 4096, 64},
		{32768, 8192, 128},
	}
	for _, c := range cases {
		if got := m.Nodes(c.p); got != c.nodes {
			t.Errorf("Nodes(%d) = %d, want %d", c.p, got, c.nodes)
		}
		if got := m.IONs(c.p); got != c.ions {
			t.Errorf("IONs(%d) = %d, want %d", c.p, got, c.ions)
		}
	}
}

func TestAggregatorsCappedByProcs(t *testing.T) {
	m := NewBGP()
	if got := m.Aggregators(32768); got != 1024 {
		t.Errorf("Aggregators(32K) = %d, want 1024", got)
	}
	if got := m.Aggregators(4); got != 4 {
		t.Errorf("Aggregators(4) = %d, want 4 (capped)", got)
	}
}

func TestImprovedCompositorsRule(t *testing.T) {
	cases := map[int]int{
		64:    64,
		1024:  1024,
		2048:  1024,
		4096:  1024,
		8192:  2048,
		32768: 2048,
	}
	for n, want := range cases {
		if got := ImprovedCompositors(n); got != want {
			t.Errorf("ImprovedCompositors(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestPhaseOnTorusFoldsRanks(t *testing.T) {
	m := NewBGP()
	// Ranks 0-3 share node 0; a message between them is a self-message.
	st := m.PhaseOnTorusPlaced(64, []compose.RankMessage{{Src: 0, Dst: 3, Bytes: 100}}, true, PlacementBlock)
	if st.MaxHops != 0 {
		t.Errorf("same-node message has %d hops", st.MaxHops)
	}
	st = m.PhaseOnTorusPlaced(64, []compose.RankMessage{{Src: 0, Dst: 63, Bytes: 100}}, true, PlacementBlock)
	if st.MaxHops == 0 {
		t.Error("cross-node message should hop")
	}
}

func TestPhaseOnTorusPanicsOnBadRank(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewBGP().PhaseOnTorusPlaced(8, []compose.RankMessage{{Src: 0, Dst: 100, Bytes: 1}}, true, PlacementBlock)
}
