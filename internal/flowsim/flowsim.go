// Package flowsim is a flow-level network simulator: messages are
// fluid flows sharing torus links under progressive max-min fairness,
// advanced event by event until every flow completes. It is the
// fine-grained cross-check for the bottleneck cost model in package
// torus — the two must broadly agree where both are tractable (the
// AblationNetworkModel bench compares them), and flowsim additionally
// captures transient effects (short flows finishing early and returning
// bandwidth) that a single-bottleneck bound cannot.
//
// Max-min fair sharing is exact after every flow completion, but an
// event costs what the completion changed. The kernel (kernel.go) keeps
// sparse active sets (compacted in place as flows finish), groups
// same-route flows so they freeze and complete together, selects each
// round's bottleneck from a monotone bucket queue (queue.go) instead of
// rescanning every link, and logs each event's freeze rounds so the
// next event can keep them: a flow that finished was frozen in some
// round, the rounds before it cannot have been affected, so only the
// rounds from there on are taken back and recomputed. Every entry point
// runs that one kernel, at any worker count (shard.go). The results are
// bit-identical to the full-rescan formulation kept in the tests (the
// equivalence suite pins this), which makes 16K-128K-rank direct-send
// phases tractable where a rescan self-limits to a few thousand ranks.
package flowsim

import (
	"bgpvr/internal/par"
	"bgpvr/internal/telemetry"
	"bgpvr/internal/torus"
)

// Result summarizes one simulated phase.
type Result struct {
	Time        float64 // completion time of the last flow (s)
	Completions int
	// Events counts rate recomputations (simulation effort).
	Events int
}

// FlowTimes records per-message completion times from one simulated
// phase: Done[i] is the seconds from phase start until msgs[i] is
// fully received (endpoint overheads and route latency included).
// Messages starved of bandwidth are stamped with the phase end time.
// The recording is purely observational — attaching a FlowTimes never
// changes the simulated Result — and feeds the critical-path graph's
// modeled dependency edges.
type FlowTimes struct {
	Done []float64
}

// Simulate runs the phase: all messages start at t=0 and stream over
// their dimension-ordered routes at max-min fair rates. Per-message
// endpoint overheads (SendOverhead+RecvOverhead) delay each flow's
// completion additively; self-messages cost only their overheads.
func Simulate(top torus.Topology, p torus.Params, msgs []torus.Message) Result {
	return simulateFlex(top, p, msgs, nil, nil, 1, nil, nil)
}

// SimulateTimed is Simulate with optional per-link telemetry and
// per-message completion times. When u is non-nil it accumulates, per
// directed link, the payload carried (bytes cross every link of their
// route), the number of concurrent flows, how often the link was the
// max-min bottleneck, and the time it spent occupied by at least one
// unfinished flow; u's Capacity and Duration are set from the phase.
// When ft is non-nil its Done slice is resized to len(msgs) and filled
// with each message's completion time. Both hooks are observational:
// nil ones allocate nothing and the simulated times are bit-identical
// either way.
func SimulateTimed(top torus.Topology, p torus.Params, msgs []torus.Message, u *telemetry.LinkUsage, ft *FlowTimes) Result {
	return simulateFlex(top, p, msgs, u, ft, 1, nil, nil)
}

// Options configures SimulateOpt beyond the plain Simulate surface.
type Options struct {
	// Usage, when non-nil, accumulates per-link telemetry exactly as
	// SimulateTimed's u does. Only honored in exact mode: the clustered
	// approximation simulates aggregated model links whose indices do
	// not name physical links, so Usage is ignored when ApproxEps
	// engages a coarser-than-exact clustering.
	Usage *telemetry.LinkUsage
	// Times, when non-nil, receives per-message completion times like
	// SimulateTimed's ft.
	Times *FlowTimes
	// Workers shards the event loop's per-round work (link-state
	// updates, bucket refiling, flow advancement) over a persistent
	// par.Gang. Results are bit-identical at every width; <= 0 means
	// all cores, 1 disables sharding.
	Workers int
	// ApproxEps > 0 enables the clustered contention approximation
	// with the given relative-error budget: torus links are grouped
	// into regions (torus.SideForEps picks the cluster side), flows
	// contend exactly on links inside their endpoint regions and
	// against pooled directional capacity in transit regions, and the
	// result is clamped to the certifiable physical-bottleneck lower
	// bound. Eps below the smallest calibrated band degrades to the
	// exact kernel.
	ApproxEps float64
	// EndpointAgg additionally aggregates the interior hops of each
	// flow's endpoint regions (torus.Regions.EndpointAgg): only the
	// injection hop out of the source node and the ejection hop into
	// the destination node keep their physical identity, so the
	// per-flow endpoint fan — the dominant model-link population on
	// direct-send workloads past 32K ranks — collapses onto the same
	// regional aggregates transit hops use. Only meaningful with
	// ApproxEps > 0; it engages when the decomposition is coarse
	// enough to pay (side >= 4 and at least endpointAggMinRegions
	// regions — below that nearly every hop is an injection/ejection
	// hop already and pooling would spend accuracy for nothing).
	// ApproxInfo.EndpointAgg reports whether it actually engaged.
	EndpointAgg bool
}

// endpointAggMinRegions is the engagement floor for Options.EndpointAgg:
// decompositions with fewer regions keep endpoint hops physical even
// when the dial is on (they are dominated by injection/ejection hops,
// which stay physical regardless).
const endpointAggMinRegions = 8

// ApproxInfo reports what the clustered contention approximation did;
// SimulateOpt returns nil when ApproxEps was not engaged.
type ApproxInfo struct {
	Eps        float64 // the requested bound
	Side       int     // cluster side chosen by SideForEps
	Regions    int     // clusters in the decomposition
	PhysLinks  int     // physical directed links
	ModelLinks int     // simulated model links (aggregates + exact)
	// EndpointAgg reports whether endpoint-hop aggregation engaged
	// (Options.EndpointAgg requested it and the decomposition cleared
	// the engagement floor).
	EndpointAgg bool
	// UsedLinks counts the model links the streamed flows actually
	// reference — the live population the event loop iterates, and the
	// number endpoint aggregation exists to shrink (ModelLinks is just
	// the id-space size).
	UsedLinks int
	// LowerBound is the certifiable completion-time floor: the
	// heaviest physical link's load over its bandwidth, plus the
	// endpoint overheads and route latency every flow pays. The exact
	// kernel can never finish below it.
	LowerBound float64
	// Clamped reports whether the raw approximate time fell below
	// LowerBound and was lifted onto it (completion times rescaled).
	Clamped bool
	// BoundGap is (Time - LowerBound) / Time: the residual
	// uncertainty band above the certifiable floor. The exact result
	// lives somewhere in that band, so BoundGap is a self-measured
	// error bound that needs no exact run.
	BoundGap float64
}

// SimulateOpt runs the phase like SimulateTimed with optional event-
// loop sharding and the optional clustered contention approximation.
// With Options{Workers: 1} it is exactly Simulate; at any other width
// the result (times, telemetry, completion stamps) is bit-identical —
// the sharding only changes who computes each link's update, never
// the order the updates apply in.
func SimulateOpt(top torus.Topology, p torus.Params, msgs []torus.Message, opt Options) (Result, *ApproxInfo) {
	workers := par.Workers(opt.Workers)
	if opt.ApproxEps <= 0 {
		return simulateFlex(top, p, msgs, opt.Usage, opt.Times, workers, nil, nil), nil
	}
	side := torus.SideForEps(opt.ApproxEps)
	info := &ApproxInfo{Eps: opt.ApproxEps, Side: side, PhysLinks: top.NumLinks()}
	if side <= 1 {
		// Degrade to exact: the clustering would keep every hop's
		// physical identity anyway, so run the exact kernel and report
		// a zero-width error band.
		res := simulateFlex(top, p, msgs, opt.Usage, opt.Times, workers, nil, nil)
		info.Regions = top.Nodes()
		info.ModelLinks = top.NumLinks()
		info.LowerBound = res.Time
		return res, info
	}
	rg := torus.NewRegions(top, side)
	if opt.EndpointAgg && side >= 4 && rg.NumRegions() >= endpointAggMinRegions {
		rg.EndpointAgg = true
	}
	info.Regions = rg.NumRegions()
	info.ModelLinks = rg.NumModelLinks()
	info.EndpointAgg = rg.EndpointAgg
	res := simulateFlex(top, p, msgs, nil, opt.Times, workers, rg, info)
	return res, info
}

// simulateFlex is the one max-min kernel behind every entry point. It
// simulates on per-link capacities and weighted route entries when the
// clustered approximation supplies a decomposition (rg and info both
// non-nil), on the physical links otherwise; workers > 1 shards the
// per-round work over a gang, which never changes a result.
func simulateFlex(top torus.Topology, p torus.Params, msgs []torus.Message,
	u *telemetry.LinkUsage, ft *FlowTimes, workers int, rg *torus.Regions, info *ApproxInfo) Result {
	s := newSim(top, p, msgs, u, ft, rg)
	simPhase.Start(int64(s.nflows))
	defer simPhase.End()
	cSimFlows.Add(int64(s.nflows))
	if info != nil {
		info.UsedLinks = len(s.activeLinks)
	}
	// A phase no section of which can clear its threshold starts no gang.
	if workers > 1 && (len(s.routes.links) >= shardMinTouches || s.nflows >= shardMinFlows) {
		s.gang = newGang(s, workers)
		defer s.gang.Close()
	}
	return s.finish(s.run(), info)
}
