package flowsim

import "bgpvr/internal/obs"

// Live observability for the event loop. The kernel keeps plain local
// ints inside an event and flushes them here once per event — one
// atomic add per counter per event, thousands of times cheaper than
// ticking per freeze operation and invisible next to the round's own
// work. simPhase feeds the -progress heartbeat and the /metrics
// progress gauges: total is the phase's flow count, done advances as
// flows complete, so a stuck simulation shows a flatlined rate in the
// flight record.
var (
	simPhase = obs.GetPhase("flowsim")

	cSimEvents = obs.Default.NewCounter("bgpvr_flowsim_events_total",
		"Flowsim rate-recomputation events processed.")
	cSimFreezeRounds = obs.Default.NewCounter("bgpvr_flowsim_freeze_rounds_total",
		"Max-min freeze rounds (bottleneck selections) processed.")
	cSimFrozenFlows = obs.Default.NewCounter("bgpvr_flowsim_frozen_flows_total",
		"Flow freezes applied across all freeze rounds.")
	cSimKeptRounds = obs.Default.NewCounter("bgpvr_flowsim_kept_rounds_total",
		"Freeze rounds an event kept from the one before instead of redoing.")
	cSimClaimedEntries = obs.Default.NewCounter("bgpvr_flowsim_claimed_entries_total",
		"Route entries (flow group x link) whose bandwidth claim was computed.")
	cSimFlows = obs.Default.NewCounter("bgpvr_flowsim_flows_total",
		"Flows handed to the flowsim kernel.")
)
