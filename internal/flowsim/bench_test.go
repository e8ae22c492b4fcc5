package flowsim

import (
	"testing"

	"bgpvr/internal/core"
	"bgpvr/internal/machine"
	"bgpvr/internal/torus"
)

// directSendPhase builds the torus-level message set of a direct-send
// compositing phase at the given scale: every renderer's projected
// rectangle is fragmented over the improved compositor count and each
// fragment becomes one flow between the ranks' nodes under block
// placement — the same workload the imbalance bench streams through
// SimulateTimed.
func directSendPhase(procs int) (torus.Topology, torus.Params, []torus.Message) {
	return core.CompositePhaseMessages(machine.NewBGP(), core.DefaultScene(256, 1024), procs, 0, 0)
}

// BenchmarkFlowsimDirectSend measures the max-min kernel, at one
// worker, on a 4K-rank direct-send phase. The rescan leg is the
// original full-rescan formulation (reference_test.go); the acceptance
// bar is sparse being at least 5x fewer ns/op.
func BenchmarkFlowsimDirectSend(b *testing.B) {
	const procs = 4096
	top, p, nm := directSendPhase(procs)
	b.Run("sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := SimulateTimed(top, p, nm, nil, nil)
			if r.Completions == 0 {
				b.Fatal("no flows simulated")
			}
		}
	})
	b.Run("rescan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := simulateRescanTimed(top, p, nm, nil, nil)
			if r.Completions == 0 {
				b.Fatal("no flows simulated")
			}
		}
	})
}

// BenchmarkFlowsimSharded runs the same kernel on the same 4K-rank
// phase at 2 and 4 workers; the one-worker leg is
// BenchmarkFlowsimDirectSend/sparse. This workload sits *below* the
// gang's engagement thresholds (per-round touched work is too small to
// amortize the rendezvous — forcing the gang here is 2x slower at 4
// workers), so the legs should be flat against sparse: they pin that
// asking for workers at sub-threshold scale costs nothing. The
// at-scale speedup itself (2.2x at 4 workers on the 8K-rank exchange)
// takes minutes per iteration and is gated by CI's scale-smoke job
// instead.
func BenchmarkFlowsimSharded(b *testing.B) {
	const procs = 4096
	top, p, nm := directSendPhase(procs)
	for _, workers := range []int{2, 4} {
		b.Run(map[int]string{2: "w2", 4: "w4"}[workers], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, _ := SimulateOpt(top, p, nm, Options{Workers: workers})
				if r.Completions == 0 {
					b.Fatal("no flows simulated")
				}
			}
		})
	}
}

// BenchmarkFlowsimEndpointAgg measures the endpoint-hop-aggregated
// approximation on CI's 32K-rank scale-smoke workload (the direct-send
// exchange of a 64^3 volume onto a 256^2 image) at eps 0.25. This is
// the configuration the EXPERIMENTS.md speedup table tracks: endpoint
// aggregation collapses each flow's endpoint fan onto weighted
// regional-aggregate entries, shrinking every flow's constraint set
// (and with it freeze-round events, 3.1x here) — which is what makes
// the 64K/128K sweep points tractable.
func BenchmarkFlowsimEndpointAgg(b *testing.B) {
	const procs = 32768
	top, p, nm := core.CompositePhaseMessages(machine.NewBGP(), core.DefaultScene(64, 256), procs, 0, 0)
	keep := nm[:0]
	for _, m := range nm {
		if m.Src != m.Dst {
			keep = append(keep, m)
		}
	}
	nm = keep
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, info := SimulateOpt(top, p, nm, Options{ApproxEps: 0.25, EndpointAgg: true})
		if r.Completions != len(nm) {
			b.Fatalf("completed %d of %d flows", r.Completions, len(nm))
		}
		if info == nil || !info.EndpointAgg {
			b.Fatalf("endpoint aggregation did not engage: %+v", info)
		}
	}
}

// BenchmarkFlowsimApprox measures the clustered contention
// approximation against the exact leg at the same scale: the eps-knob
// trade of accuracy for event-loop work.
func BenchmarkFlowsimApprox(b *testing.B) {
	const procs = 4096
	top, p, nm := directSendPhase(procs)
	for _, eps := range []float64{0.08, 0.25} {
		b.Run(map[float64]string{0.08: "eps08", 0.25: "eps25"}[eps], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, _ := SimulateOpt(top, p, nm, Options{ApproxEps: eps})
				if r.Completions == 0 {
					b.Fatal("no flows simulated")
				}
			}
		})
	}
}
