package flowsim

import (
	"fmt"
	"math/rand"
	"testing"

	"bgpvr/internal/grid"
	"bgpvr/internal/telemetry"
	"bgpvr/internal/torus"
)

// randomMsgs draws a message set that exercises every setup path:
// shared routes, self-messages, zero-byte messages, and heavy-tailed
// sizes (direct-send fragments span orders of magnitude).
func randomMsgs(rng *rand.Rand, nodes, n int) []torus.Message {
	msgs := make([]torus.Message, n)
	for i := range msgs {
		src := rng.Intn(nodes)
		dst := rng.Intn(nodes)
		var bytes int64
		switch rng.Intn(10) {
		case 0:
			dst = src // pure-overhead flow
			bytes = 1 << 10
		case 1:
			bytes = 0 // zero-byte flow
		case 2:
			bytes = 1 + rng.Int63n(1<<8) // tiny: finishes early, returns bandwidth
		default:
			bytes = 1 + rng.Int63n(1<<22)
		}
		msgs[i] = torus.Message{Src: src, Dst: dst, Bytes: bytes}
	}
	return msgs
}

// sameUsage fails unless the two link-usage records are bit-identical.
func sameUsage(t *testing.T, got, want *telemetry.LinkUsage) {
	t.Helper()
	if got.Capacity != want.Capacity || got.Duration != want.Duration {
		t.Errorf("usage capacity/duration (%v, %v), want (%v, %v)",
			got.Capacity, got.Duration, want.Capacity, want.Duration)
	}
	for l := range want.Bytes {
		if got.Bytes[l] != want.Bytes[l] || got.Flows[l] != want.Flows[l] ||
			got.Bottlenecks[l] != want.Bottlenecks[l] || got.BusySeconds[l] != want.BusySeconds[l] {
			t.Fatalf("link %d usage (bytes %d flows %d bott %d busy %v), want (%d %d %d %v)",
				l, got.Bytes[l], got.Flows[l], got.Bottlenecks[l], got.BusySeconds[l],
				want.Bytes[l], want.Flows[l], want.Bottlenecks[l], want.BusySeconds[l])
		}
	}
}

// sameTimes fails unless the two completion-time records are
// bit-identical.
func sameTimes(t *testing.T, got, want *FlowTimes) {
	t.Helper()
	if len(got.Done) != len(want.Done) {
		t.Fatalf("Done has %d entries, reference %d", len(got.Done), len(want.Done))
	}
	for i := range want.Done {
		if got.Done[i] != want.Done[i] {
			t.Fatalf("msg %d done %v, reference %v", i, got.Done[i], want.Done[i])
		}
	}
}

// TestKernelMatchesRescan pins the kernel against the full-rescan
// reference, the only other max-min implementation in the package:
// Result, per-message completion times, and per-link telemetry must
// all be bit-identical (exact float64 equality, no tolerance) on
// randomized message sets over several topologies — through every
// entry point, at every worker count, at the default engagement
// thresholds and with every gang section forced on, with the
// observation hooks attached and with both nil.
func TestKernelMatchesRescan(t *testing.T) {
	tops := []torus.Topology{
		torus.NewTopology(64),
		{Dims: grid.I(8, 1, 1)},
		{Dims: grid.I(4, 2, 3)},
		torus.NewTopology(512),
	}
	p := params()
	for _, forced := range []bool{false, true} {
		t.Run(map[bool]string{false: "default", true: "forced"}[forced], func(t *testing.T) {
			if forced {
				forceSharding(t)
			}
			for ti, top := range tops {
				big := top.Nodes() >= 512
				seeds := int64(8)
				if big {
					seeds = 1 // one larger phase: oversubscribed gangs spin
				}
				for seed := int64(0); seed < seeds; seed++ {
					rng := rand.New(rand.NewSource(seed*977 + int64(ti)))
					n := 20 + rng.Intn(120)
					if big {
						n = 400
					}
					msgs := randomMsgs(rng, top.Nodes(), n)
					uR := telemetry.NewLinkUsage(top.NumLinks(), p.LinkBandwidth)
					var ftR FlowTimes
					want := simulateRescanTimed(top, p, msgs, uR, &ftR)
					if bare := simulateRescanTimed(top, p, msgs, nil, nil); bare != want {
						t.Fatalf("rescan reference perturbed by its hooks: %+v vs %+v", want, bare)
					}
					t.Run(fmt.Sprintf("top%d/seed%d/entry", ti, seed), func(t *testing.T) {
						u := telemetry.NewLinkUsage(top.NumLinks(), p.LinkBandwidth)
						var ft FlowTimes
						if got := SimulateTimed(top, p, msgs, u, &ft); got != want {
							t.Errorf("SimulateTimed %+v, rescan reference %+v", got, want)
						}
						sameTimes(t, &ft, &ftR)
						sameUsage(t, u, uR)
						if got := Simulate(top, p, msgs); got != want {
							t.Errorf("Simulate %+v, rescan reference %+v", got, want)
						}
					})
					for _, workers := range []int{1, 2, 3, 4, 8} {
						t.Run(fmt.Sprintf("top%d/seed%d/w%d", ti, seed, workers), func(t *testing.T) {
							u := telemetry.NewLinkUsage(top.NumLinks(), p.LinkBandwidth)
							var ft FlowTimes
							got, info := SimulateOpt(top, p, msgs, Options{Usage: u, Times: &ft, Workers: workers})
							if info != nil {
								t.Fatalf("exact mode returned ApproxInfo %+v", info)
							}
							if got != want {
								t.Errorf("Result %+v, rescan reference %+v", got, want)
							}
							sameTimes(t, &ft, &ftR)
							sameUsage(t, u, uR)
							if got, _ := SimulateOpt(top, p, msgs, Options{Workers: workers}); got != want {
								t.Errorf("hook-free Result %+v, rescan reference %+v", got, want)
							}
						})
					}
				}
			}
		})
	}
}
