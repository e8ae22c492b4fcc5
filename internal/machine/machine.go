// Package machine describes the Blue Gene/P installation of §III-A as a
// parameterized model: 850 MHz quad-core nodes (2 GB each), 1K nodes per
// rack, 40 racks, one I/O node per 64 compute nodes, a 3D torus for
// point-to-point traffic, a tree network for collectives and I/O
// forwarding, and the striped storage system of Fig 2. It is the single
// place the published constants live; the model-mode pipeline composes
// its timing from the sub-models it aggregates.
package machine

import (
	"fmt"

	"bgpvr/internal/compose"
	"bgpvr/internal/pfs"
	"bgpvr/internal/torus"
	"bgpvr/internal/tree"
)

// Machine is a Blue Gene/P style system description.
type Machine struct {
	CoresPerNode int
	NodesPerION  int
	NodesPerRack int
	Racks        int
	CoreHz       float64

	// SecondsPerSample is the calibrated cost of one ray-casting sample
	// (trilinear fetch + classification + blend) on one core. The value
	// is fitted to the paper's Fig 3 rendering curve (~40 s for 1120^3 /
	// 1600^2 on 64 cores, ~0.2 s on 16K cores).
	SecondsPerSample float64

	Torus   torus.Params
	Tree    tree.Params
	Storage pfs.Params
}

// NewBGP returns the Argonne Blue Gene/P ("Intrepid") description used
// throughout the experiments.
func NewBGP() Machine {
	return Machine{
		CoresPerNode:     4,
		NodesPerION:      64,
		NodesPerRack:     1024,
		Racks:            40,
		CoreHz:           850e6,
		SecondsPerSample: 3.0e-6,
		Torus:            torus.NewBGP(),
		Tree:             tree.NewBGP(),
		Storage:          pfs.NewBGPStorage(),
	}
}

// Nodes returns the compute nodes a p-core job occupies (virtual-node
// mode: all four cores per node run ranks, as the paper's runs did).
func (m Machine) Nodes(p int) int {
	return (p + m.CoresPerNode - 1) / m.CoresPerNode
}

// IONs returns the I/O nodes serving a p-core job.
func (m Machine) IONs(p int) int {
	return (m.Nodes(p) + m.NodesPerION - 1) / m.NodesPerION
}

// Aggregators returns the default MPI-IO aggregator count for a p-core
// job: eight per I/O node (pset), ROMIO's Blue Gene default.
func (m Machine) Aggregators(p int) int {
	a := 8 * m.IONs(p)
	if a > p {
		a = p
	}
	return a
}

// TorusFor returns the torus topology of the partition running p ranks.
func (m Machine) TorusFor(p int) torus.Topology {
	return torus.NewTopology(m.Nodes(p))
}

// NodeOf maps a rank to its node id (block mapping, ranks packed four
// per node).
func (m Machine) NodeOf(rank int) int { return rank / m.CoresPerNode }

// PhaseOnTorusPlaced times a set of rank-level messages on the
// partition's torus by folding ranks onto nodes under placement pl.
func (m Machine) PhaseOnTorusPlaced(p int, msgs []compose.RankMessage, contention bool, pl Placement) torus.PhaseStats {
	return m.PhaseOnTorusRecorded(p, msgs, contention, pl, nil)
}

// PhaseOnTorusRecorded is PhaseOnTorusPlaced with optional per-link
// telemetry: a non-nil rec (typically *telemetry.LinkUsage sized to
// TorusFor(p).NumLinks()) receives every node-folded message's
// per-link load. rec == nil adds nothing.
func (m Machine) PhaseOnTorusRecorded(p int, msgs []compose.RankMessage, contention bool, pl Placement, rec torus.LinkRecorder) torus.PhaseStats {
	top := m.TorusFor(p)
	nodeOf := m.RankToNode(p, pl)
	nm := make([]torus.Message, len(msgs))
	for i, mm := range msgs {
		if mm.Src < 0 || mm.Src >= p || mm.Dst < 0 || mm.Dst >= p {
			panic(fmt.Sprintf("machine: rank message %+v outside %d ranks", mm, p))
		}
		nm[i] = torus.Message{Src: nodeOf[mm.Src], Dst: nodeOf[mm.Dst], Bytes: mm.Bytes}
	}
	return torus.PhaseRecorded(top, m.Torus, nm, contention, rec)
}

// ImprovedCompositors returns the paper's empirically chosen compositor
// count for n renderers: m = n up to 1K, 1K compositors for 1K-4K
// renderers, and 2K compositors beyond 4K ("we used 1K compositors when
// the number of renderers is between 1K and 4K and then 2K compositors
// beyond that").
func ImprovedCompositors(n int) int {
	switch {
	case n <= 1024:
		return n
	case n <= 4096:
		return 1024
	default:
		return 2048
	}
}
