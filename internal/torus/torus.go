// Package torus models the Blue Gene/P 3D torus interconnect: topology,
// deterministic dimension-ordered routing, per-link load accounting, and
// a bottleneck cost model for communication phases.
//
// The model is the mechanism behind the paper's Fig 4: effective
// compositing bandwidth falls away from the theoretical peak as messages
// become many and small, because (1) per-message software/NIC overhead
// serializes at each endpoint, (2) many-to-one traffic concentrates on
// ejection links ("hot spots", Davis et al.), and (3) shared torus links
// carry the sum of all flows routed over them. All three effects are
// modeled from published BG/P constants rather than fitted curves.
//
// All times are virtual seconds (float64); nothing in this package
// sleeps or measures wall-clock time.
package torus

import (
	"fmt"

	"bgpvr/internal/grid"
)

// Params are the torus model constants. NewBGP returns the published
// Blue Gene/P values used throughout the experiments.
type Params struct {
	LinkBandwidth float64 // bytes/s per link per direction
	HopLatency    float64 // seconds per hop traversed
	RouteLatency  float64 // fixed per-message latency (software + injection)
	SendOverhead  float64 // per-message CPU/DMA overhead at the sender
	RecvOverhead  float64 // per-message CPU/DMA overhead at the receiver
	InjectionBW   float64 // per-node injection bandwidth (all links combined)
	EjectionBW    float64 // per-node ejection bandwidth (all links combined)
	// QueuePenalty models the superlinear software cost of handling many
	// concurrent small messages at one node (MPI match-queue scanning,
	// DMA descriptor contention): a node touching k small messages in a
	// phase pays QueuePenalty * k^2 seconds, where each message counts
	// with weight SmallMsgRef/(SmallMsgRef+bytes) — sub-SmallMsgRef
	// messages count fully, large ones barely. This is the mechanism the
	// paper presumes for the compositing collapse ("communication
	// bandwidth degrades with large numbers of small messages") and what
	// Kumar & Heidelberger measured for sub-256-byte all-to-alls on Blue
	// Gene.
	QueuePenalty float64
	SmallMsgRef  float64
}

// NewBGP returns torus parameters for the Blue Gene/P: 3.4 Gb/s per
// link per direction, 5 µs maximum end-to-end latency (split here into a
// fixed part and a per-hop part), 6 links per node, and DMA message
// overheads in the microsecond range reported for the BG/P messaging
// stack.
func NewBGP() Params {
	const linkBW = 3.4e9 / 8 // 3.4 Gb/s -> 425 MB/s
	return Params{
		LinkBandwidth: linkBW,
		HopLatency:    100e-9, // ~0.1 µs per hop
		RouteLatency:  1.5e-6, // fixed wire + injection pipeline
		SendOverhead:  2.0e-6, // software send overhead per message
		RecvOverhead:  2.5e-6, // software receive/match overhead
		InjectionBW:   6 * linkBW,
		EjectionBW:    6 * linkBW,
		QueuePenalty:  12e-6, // calibrated against the paper's 30x compositing gap
		SmallMsgRef:   512,   // bytes; the Kumar/Heidelberger falloff knee
	}
}

// Topology is an X*Y*Z node torus. Nodes are identified by ids in
// [0, Nodes()) with X varying fastest.
type Topology struct {
	Dims grid.IVec3
}

// NewTopology builds a near-cubic torus for n nodes (n is factored the
// same way process grids are).
func NewTopology(n int) Topology {
	return Topology{Dims: grid.FactorProcs(n)}
}

// Nodes returns the number of nodes in the torus.
func (t Topology) Nodes() int { return t.Dims.X * t.Dims.Y * t.Dims.Z }

// Coord returns the torus coordinates of node id.
func (t Topology) Coord(id int) grid.IVec3 {
	return grid.IVec3{
		X: id % t.Dims.X,
		Y: (id / t.Dims.X) % t.Dims.Y,
		Z: id / (t.Dims.X * t.Dims.Y),
	}
}

// ID returns the node id of torus coordinates c.
func (t Topology) ID(c grid.IVec3) int {
	return (c.Z*t.Dims.Y+c.Y)*t.Dims.X + c.X
}

// NumLinks returns the number of directed links (6 per node: ±X, ±Y,
// ±Z). Tori of extent 1 or 2 along an axis still expose both directions;
// extent-1 rings are self-links that routing never uses.
func (t Topology) NumLinks() int { return 6 * t.Nodes() }

// linkIndex identifies the directed link leaving node id in direction
// dir, where dir in 0..5 encodes (+X, -X, +Y, -Y, +Z, -Z).
func (t Topology) linkIndex(id, dir int) int { return LinkIndex(id, dir) }

// LinkIndex returns the directed link index of the link leaving node
// id in direction dir (0..5 encoding +X, -X, +Y, -Y, +Z, -Z). The
// encoding is the inverse of LinkOf and is shared with the telemetry
// exporters.
func LinkIndex(id, dir int) int { return id*6 + dir }

// LinkOf decomposes a directed link index into its source node and
// direction code.
func LinkOf(link int) (node, dir int) { return link / 6, link % 6 }

// Neighbor returns the node one hop from id in direction dir (0..5
// encoding +X, -X, +Y, -Y, +Z, -Z), wrapping around the torus — i.e.
// the node the directed link LinkIndex(id, dir) lands on.
func (t Topology) Neighbor(id, dir int) int {
	c := t.Coord(id)
	axis := dir / 2
	n := t.Dims.Comp(axis)
	step := 1
	if dir&1 == 1 {
		step = n - 1 // -1 mod n
	}
	return t.ID(c.SetComp(axis, (c.Comp(axis)+step)%n))
}

// dirNames are the direction codes' display names.
var dirNames = [6]string{"+X", "-X", "+Y", "-Y", "+Z", "-Z"}

// DirName returns the display name of direction code dir ("+X".."-Z").
func DirName(dir int) string {
	if dir < 0 || dir >= len(dirNames) {
		return "?"
	}
	return dirNames[dir]
}

// ringStep returns the next coordinate and the direction code when
// moving from a toward b along axis (0..2) by the shorter way around
// the ring. ok is false when a == b on that axis.
func (t Topology) ringStep(a, b, axis int) (next, dir int, ok bool) {
	n := t.Dims.Comp(axis)
	if a == b {
		return a, 0, false
	}
	fwd := (b - a + n) % n // hops going +
	bwd := (a - b + n) % n // hops going -
	if fwd <= bwd {
		return (a + 1) % n, 2 * axis, true
	}
	return (a - 1 + n) % n, 2*axis + 1, true
}

// Hops returns the number of torus hops on the dimension-ordered route
// from src to dst.
func (t Topology) Hops(src, dst int) int {
	a, b := t.Coord(src), t.Coord(dst)
	h := 0
	for axis := 0; axis < 3; axis++ {
		n := t.Dims.Comp(axis)
		d := (b.Comp(axis) - a.Comp(axis) + n) % n
		h += min(d, n-d)
	}
	return h
}

// Route visits every directed link on the dimension-ordered (X, then Y,
// then Z) shortest-ring route from src to dst, calling visit with the
// link index. src == dst visits nothing.
func (t Topology) Route(src, dst int, visit func(link int)) {
	a, b := t.Coord(src), t.Coord(dst)
	cur := a
	for axis := 0; axis < 3; axis++ {
		for cur.Comp(axis) != b.Comp(axis) {
			next, dir, _ := t.ringStep(cur.Comp(axis), b.Comp(axis), axis)
			visit(t.linkIndex(t.ID(cur), dir))
			cur = cur.SetComp(axis, next)
		}
	}
}

// Message is one point-to-point transfer between nodes.
type Message struct {
	Src, Dst int
	Bytes    int64
}

// PhaseStats reports the cost model's view of one communication phase in
// which all messages are in flight concurrently (the compositing
// exchange is exactly such a phase).
type PhaseStats struct {
	Time          float64 // modeled phase completion time (s)
	TotalBytes    int64   // payload moved
	Messages      int
	MaxHops       int
	MaxLinkBytes  int64   // heaviest directed link
	MaxNodeInject int64   // heaviest sender, bytes
	MaxNodeEject  int64   // heaviest receiver, bytes
	MaxSendMsgs   int     // most messages from one node
	MaxRecvMsgs   int     // most messages into one node
	LinkTerm      float64 // contention (shared link) term
	InjectTerm    float64 // sender serialization term
	EjectTerm     float64 // receiver serialization term
	QueueTerm     float64 // small-message software congestion term
	LatencyTerm   float64
}

// Bandwidth returns the effective aggregate bandwidth of the phase
// (total payload / time), the quantity plotted in Fig 4.
func (s PhaseStats) Bandwidth() float64 {
	if s.Time <= 0 {
		return 0
	}
	return float64(s.TotalBytes) / s.Time
}

// LinkRecorder observes the per-link load a phase routes; it is the
// narrow seam between the network models and package telemetry
// (*telemetry.LinkUsage implements it). Implementations must accept
// link indices in [0, Topology.NumLinks()).
type LinkRecorder interface {
	// RecordLink adds one flow carrying the given payload to link l.
	RecordLink(l int, bytes int64)
}

// Phase times a set of concurrent messages on the torus. The completion
// time is the maximum of three bottleneck terms plus the critical-path
// latency:
//
//	link term:   max over directed links of bytes(link)/LinkBandwidth
//	inject term: max over nodes of sendBytes/InjectionBW + #sends*SendOverhead
//	eject term:  max over nodes of recvBytes/EjectionBW + #recvs*RecvOverhead
//	latency:     RouteLatency + MaxHops*HopLatency
//
// Self-messages (Src == Dst) contribute only their send/recv overheads.
// Contention=false disables the shared-link term (used by the ablation
// bench that shows Fig 4's falloff needs contention + overhead).
func Phase(t Topology, p Params, msgs []Message, contention bool) PhaseStats {
	return PhaseRecorded(t, p, msgs, contention, nil)
}

// PhaseRecorded is Phase with optional per-link telemetry: when rec is
// non-nil every routed message's payload is reported link by link
// (even with contention disabled, where the link term is still
// excluded from the modeled time). rec == nil is exactly Phase — the
// recording path adds no allocations and leaves the modeled time
// bit-identical.
func PhaseRecorded(t Topology, p Params, msgs []Message, contention bool, rec LinkRecorder) PhaseStats {
	linkBytes := make([]int64, t.NumLinks())
	type nodeLoad struct {
		sendBytes, recvBytes int64
		sends, recvs         int
		queueWeight          float64
	}
	nodes := make([]nodeLoad, t.Nodes())
	var st PhaseStats
	st.Messages = len(msgs)
	for _, m := range msgs {
		if m.Src < 0 || m.Src >= t.Nodes() || m.Dst < 0 || m.Dst >= t.Nodes() {
			panic(fmt.Sprintf("torus: message endpoint out of range: %+v", m))
		}
		st.TotalBytes += m.Bytes
		nodes[m.Src].sendBytes += m.Bytes
		nodes[m.Src].sends++
		nodes[m.Dst].recvBytes += m.Bytes
		nodes[m.Dst].recvs++
		if p.QueuePenalty > 0 {
			w := 1.0
			if p.SmallMsgRef > 0 {
				w = p.SmallMsgRef / (p.SmallMsgRef + float64(m.Bytes))
			}
			nodes[m.Src].queueWeight += w
			nodes[m.Dst].queueWeight += w
		}
		if m.Src == m.Dst {
			continue
		}
		if h := t.Hops(m.Src, m.Dst); h > st.MaxHops {
			st.MaxHops = h
		}
		if contention || rec != nil {
			t.Route(m.Src, m.Dst, func(link int) {
				if contention {
					linkBytes[link] += m.Bytes
				}
				if rec != nil {
					rec.RecordLink(link, m.Bytes)
				}
			})
		}
	}
	for _, b := range linkBytes {
		if b > st.MaxLinkBytes {
			st.MaxLinkBytes = b
		}
	}
	var injT, ejT, queueT float64
	for _, n := range nodes {
		if v := p.QueuePenalty * n.queueWeight * n.queueWeight; v > queueT {
			queueT = v
		}
		if n.sendBytes > st.MaxNodeInject {
			st.MaxNodeInject = n.sendBytes
		}
		if n.recvBytes > st.MaxNodeEject {
			st.MaxNodeEject = n.recvBytes
		}
		if n.sends > st.MaxSendMsgs {
			st.MaxSendMsgs = n.sends
		}
		if n.recvs > st.MaxRecvMsgs {
			st.MaxRecvMsgs = n.recvs
		}
		if v := float64(n.sendBytes)/p.InjectionBW + float64(n.sends)*p.SendOverhead; v > injT {
			injT = v
		}
		if v := float64(n.recvBytes)/p.EjectionBW + float64(n.recvs)*p.RecvOverhead; v > ejT {
			ejT = v
		}
	}
	st.LinkTerm = float64(st.MaxLinkBytes) / p.LinkBandwidth
	st.InjectTerm = injT
	st.EjectTerm = ejT
	st.QueueTerm = queueT
	st.LatencyTerm = p.RouteLatency + float64(st.MaxHops)*p.HopLatency
	st.Time = max(max(st.LinkTerm, st.QueueTerm), max(st.InjectTerm, st.EjectTerm)) + st.LatencyTerm
	return st
}

// PeakPhaseTime returns the idealized time for moving the same payload
// with no overheads and no contention: every node-to-node transfer runs
// at full link bandwidth in parallel. It provides the "peak" reference
// curve of Fig 4: the per-message size divided by the link bandwidth
// (plus base latency).
func PeakPhaseTime(p Params, maxPerNodeBytes int64) float64 {
	return float64(maxPerNodeBytes)/p.LinkBandwidth + p.RouteLatency
}
